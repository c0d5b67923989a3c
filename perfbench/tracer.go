package main

import (
	"sync"
	"time"

	"earth/internal/earth"
)

// kindTracer is the benchmark's own earth.Tracer: it counts events per
// kind and stamps each with the host clock, charging the host time since
// the previous event to the kind of the event that ends the gap. livert
// calls it from every executor at once, hence the mutex; simrt calls it
// once per event from the sorted stream it delivers when Run ends.
type kindTracer struct {
	mu        sync.Mutex
	last      time.Time
	counts    [earth.KindCount]uint64
	hostNS    [earth.KindCount]int64
	batchMsgs uint64 // summed messages per EvBatchFlush (carried in Wait)
}

// Event implements earth.Tracer.
func (t *kindTracer) Event(e earth.Event) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	k := int(e.Kind)
	if k >= earth.KindCount {
		return
	}
	t.counts[k]++
	if !t.last.IsZero() {
		t.hostNS[k] += int64(now.Sub(t.last))
	}
	t.last = now
	if e.Kind == earth.EvBatchFlush {
		t.batchMsgs += uint64(e.Wait)
	}
}

// endOp closes the current op, so the gap to the next op's first event
// is not charged to any kind.
func (t *kindTracer) endOp() {
	t.mu.Lock()
	t.last = time.Time{}
	t.mu.Unlock()
}

func (t *kindTracer) count(kinds ...earth.EventKind) uint64 {
	var n uint64
	for _, k := range kinds {
		n += t.counts[k]
	}
	return n
}
