// Conservative time windows.
//
// The run loop repeatedly:
//
//  1. computes the earliest pending event time tmin,
//  2. runs the event queue up to the window end tmin + lookahead (clamped
//     to the next crash/detection/fence boundary),
//  3. at the barrier, merges the window's outboxed cross-node messages in
//     a canonical order, re-arms thieves whose steal missed, emits due
//     utilisation samples, matches hungry thieves to victims, and applies
//     due boundaries.
//
// The lookahead is manna.Config.MinRemoteLatency(): no message issued at or
// after tmin can arrive anywhere before tmin + lookahead, and every fault
// perturbation (drop retransmission, delay, duplication, crash-hold) only
// pushes arrivals later, so the barrier never schedules into the past.
// The windows define the results: steals are matched only at barriers, and
// same-instant arrivals enter the queue in (arrival, sender, issue-order)
// order rather than in the order they were sent.
package simrt

import (
	"cmp"
	"slices"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// outboxEntry is one cross-node message awaiting the barrier merge. The
// (at, from, seq) triple orders entries canonically: seq is the sender
// node's own issue counter, so the order is total.
type outboxEntry struct {
	at   sim.Time
	from earth.NodeID
	seq  uint64
	m    *msg
}

// boundary is one instant of the precomputed failure schedule. Windows
// never simulate across a boundary: crashes, detections, fences and heals
// mutate state machine-wide (routing, adoption, token reassignment, epoch
// bumps), so they run between windows.
type boundary struct {
	at   sim.Time
	kind uint8
	node int
	// ref is the boundary's reference instant: a heal carries its fence's
	// At so EvRejoined can report how long the node was fenced.
	ref sim.Time
}

const (
	bCrash uint8 = iota
	bDetect
	bHeal
	bFence
)

// makeBoundaries expands the crash and fence schedules into one sorted
// boundary list: for each doomed node, its crash instant and its detection
// instant one lease later; for each wrong partition verdict, its fence
// instant (one lease past the partition start) and its heal. Within one
// instant the kind order is crash < detect < heal < fence — a node's
// failure exists before any survivor can have observed it, and a heal
// completes before a back-to-back second window re-fences the node.
func makeBoundaries(crashAt []sim.Time, fences []faults.Fence, lease sim.Time) []boundary {
	var bs []boundary
	for i, at := range crashAt {
		if at < 0 {
			continue
		}
		bs = append(bs, boundary{at: at, kind: bCrash, node: i})
		bs = append(bs, boundary{at: at + lease, kind: bDetect, node: i})
	}
	for _, f := range fences {
		bs = append(bs, boundary{at: f.At, kind: bFence, node: f.Node, ref: f.At})
		bs = append(bs, boundary{at: f.Heal, kind: bHeal, node: f.Node, ref: f.At})
	}
	slices.SortFunc(bs, func(a, b boundary) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		if a.kind != b.kind {
			return cmp.Compare(a.kind, b.kind)
		}
		return cmp.Compare(a.node, b.node)
	})
	return bs
}

// runWindows drives one Run to quiescence.
func (rt *Runtime) runWindows() {
	var vnow sim.Time
	bi := 0
	for {
		rt.barrier(vnow)
		tmin, ok := rt.eng.Peek()
		haveB := bi < len(rt.boundaries)
		if !ok && !haveB {
			return
		}
		// Apply a due boundary before opening the next window. Boundaries
		// past quiescence still apply (a machine with pending crash leases
		// is not done), which keeps Elapsed covering the full schedule.
		if haveB && (!ok || rt.boundaries[bi].at <= tmin) {
			b := rt.boundaries[bi]
			bi++
			rt.bApplied++
			if b.at > rt.maxExec {
				rt.maxExec = b.at
			}
			switch b.kind {
			case bCrash:
				rt.applyCrash(b)
			case bDetect:
				rt.applyDetect(b)
			case bFence:
				rt.applyFence(b)
			case bHeal:
				rt.applyHeal(b)
			}
			vnow = b.at
			continue
		}
		end := tmin + rt.lookahead
		if haveB && rt.boundaries[bi].at < end {
			end = rt.boundaries[bi].at
		}
		rt.runWindow(end)
		vnow = end
	}
}

// barrier is the between-window work, in a fixed order:
//
//  1. merge the outboxed messages canonically into the event queue,
//  2. deliver steal-miss notes (re-arming thieves for matching),
//  3. emit utilisation samples due up to the executed horizon,
//  4. match hungry thieves to steal victims.
func (rt *Runtime) barrier(vnow sim.Time) {
	slices.SortFunc(rt.outbox, outboxCmp)
	for i := range rt.outbox {
		e := &rt.outbox[i]
		rt.eng.At(e.at, e.m.fire)
		e.m = nil
	}
	rt.outbox = rt.outbox[:0]

	// Each note touches only its own thief, so their order is irrelevant.
	for _, thief := range rt.misses {
		th := rt.nodes[thief]
		th.stealing = false
		if !th.running && th.ready.len() == 0 && th.tokens.len() == 0 &&
			!rt.downNow(th.id) {
			th.hungry = true
		}
	}
	rt.misses = rt.misses[:0]

	if rt.sampling {
		rt.emitSamples()
	}
	if rt.cfg.Balancer == earth.BalanceSteal {
		rt.matchSteals(vnow)
	}
}

func outboxCmp(a, b outboxEntry) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.from != b.from {
		return cmp.Compare(a.from, b.from)
	}
	return cmp.Compare(a.seq, b.seq)
}

// matchSteals pairs hungry (idle, dry) thieves with victims holding
// tokens, in node order, issuing the steal requests at the barrier's
// virtual instant. Receiver-initiated balancing is barrier work because
// victim selection needs a consistent view of every pool; an unmatched
// thief stays hungry and is retried at the next barrier, which models the
// real runtime's steal-retry loop at window granularity.
func (rt *Runtime) matchSteals(vnow sim.Time) {
	for _, th := range rt.nodes {
		if !th.hungry || th.stealing || th.running ||
			th.ready.len() > 0 || th.tokens.len() > 0 ||
			rt.downNow(th.id) {
			continue
		}
		v := rt.pickVictim(th)
		if v == nil {
			continue
		}
		th.hungry = false
		th.stealing = true
		issue := vnow + rt.cfg.Costs.AsyncSend
		if rt.tr != nil {
			rt.emit(earth.Event{Time: issue, Node: th.id, Peer: v.id,
				Kind: earth.EvStealRequest, Bytes: stealReqBytes})
		}
		arrival := rt.send(issue, th.id, v.id, stealReqBytes)
		m := rt.newMsg()
		m.kind = msgStealReq
		m.from, m.to = th.id, v.id
		m.bytes = stealReqBytes
		m.issue = issue
		rt.deliver(issue, arrival, m)
	}
}

// emitSamples emits the utilisation samples whose periods have been fully
// executed, one event per node per period in node order, trimming consumed
// busy spans as it goes.
func (rt *Runtime) emitSamples() {
	period := rt.cfg.UtilSamplePeriod
	for rt.sampleNext <= rt.maxExec {
		next := rt.sampleNext
		w0 := next - period
		for _, n := range rt.nodes {
			var busy sim.Time
			kept := n.spans[:0]
			for _, sp := range n.spans {
				lo, hi := sp.start, sp.end
				if lo < w0 {
					lo = w0
				}
				if hi > next {
					hi = next
				}
				if hi > lo {
					busy += hi - lo
				}
				if sp.end > next {
					kept = append(kept, sp)
				}
			}
			n.spans = kept
			rt.emit(earth.Event{Time: next, Node: n.id, Peer: earth.NoPeer,
				Kind: earth.EvUtilSample, Dur: busy})
		}
		rt.sampleNext += period
	}
}

// runWindow executes the events strictly before end, then reopens the
// barrier.
func (rt *Runtime) runWindow(end sim.Time) {
	rt.atBarrier = false
	rt.eng.RunBefore(end)
	rt.atBarrier = true
	if t := rt.eng.Now(); t > rt.maxExec {
		rt.maxExec = t
	}
}

// phaseRank orders event kinds within one (Time, Node) instant for the
// canonical trace sort: recovery re-dispatch first (it explains the work
// that follows), then thread execution, handler execution, sends, fault
// bookkeeping, deliveries, sync signals, and utilisation samples last.
// Deliver-before-sync preserves the causal reading (a sync fired by a
// delivered message appears after the delivery that caused it).
func phaseRank(k earth.EventKind) uint8 {
	switch k {
	case earth.EvNodeDown, earth.EvFrameReplayed, earth.EvWorkReassigned,
		earth.EvPartitionFence, earth.EvRejoined:
		return 0
	case earth.EvThreadRun:
		return 1
	case earth.EvHandlerRun:
		return 2
	case earth.EvPutSend, earth.EvGetSend, earth.EvInvokeSend, earth.EvPostSend,
		earth.EvTokenSpawn, earth.EvStealRequest, earth.EvBatchFlush:
		return 3
	case earth.EvFaultInjected, earth.EvTimedOut, earth.EvRetry, earth.EvRecovered,
		earth.EvFenced, earth.EvCorrupt, earth.EvPartitionStart, earth.EvPartitionHeal:
		return 4
	case earth.EvPutDeliver, earth.EvGetDeliver, earth.EvInvokeDeliver,
		earth.EvTokenDeliver, earth.EvStealGrant, earth.EvStealMiss:
		return 5
	case earth.EvSyncSignal:
		return 6
	case earth.EvSanitize:
		// End-of-run scan results; after everything else at the makespan.
		return 8
	default: // EvUtilSample
		return 7
	}
}

// eventCmp is the canonical trace order: virtual time, node, phase, then
// every remaining field, so the comparison is total up to identity and the
// (unstable) sort yields one well-defined stream whatever the emission
// order.
func eventCmp(a, b earth.Event) int {
	if a.Time != b.Time {
		return cmp.Compare(a.Time, b.Time)
	}
	if a.Node != b.Node {
		return cmp.Compare(a.Node, b.Node)
	}
	if pa, pb := phaseRank(a.Kind), phaseRank(b.Kind); pa != pb {
		return cmp.Compare(pa, pb)
	}
	if a.Kind != b.Kind {
		return cmp.Compare(a.Kind, b.Kind)
	}
	if a.Cause != b.Cause {
		return cmp.Compare(a.Cause, b.Cause)
	}
	if a.Peer != b.Peer {
		return cmp.Compare(a.Peer, b.Peer)
	}
	if a.Dur != b.Dur {
		return cmp.Compare(a.Dur, b.Dur)
	}
	if a.Wait != b.Wait {
		return cmp.Compare(a.Wait, b.Wait)
	}
	return cmp.Compare(a.Bytes, b.Bytes)
}

// flushTrace sorts the buffered events canonically and hands the stream to
// the tracer.
func (rt *Runtime) flushTrace() {
	if rt.tr != nil {
		slices.SortFunc(rt.events, eventCmp)
		for i := range rt.events {
			rt.tr.Event(rt.events[i])
		}
	}
}
