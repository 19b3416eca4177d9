package mpisim

import (
	"tracefw/internal/events"
	"tracefw/internal/sched"
)

// RecvInfo describes a completed receive.
type RecvInfo struct {
	Source int32
	Tag    int32
	Bytes  int
	Seqno  uint64
}

// Request is a nonblocking-operation handle, returned by Isend/Irecv and
// consumed by Wait/Waitall. A request belongs to the thread that created
// it. The blocking calls use one internally; theirs never leaves the
// call, so it goes back to the world's free list at the exit record,
// while a handle Isend/Irecv gave the workload is never recycled.
type Request struct {
	p      *Proc
	done   bool
	waiter *sched.Thread

	isSend  bool
	seqno   uint64
	wantSrc int32
	wantTag int32

	Info RecvInfo // valid for receive requests once done
	comm *Comm    // result slot for comm-building collectives
}

type message struct {
	src, tag int32
	bytes    int
	seqno    uint64
	srcTask  *Task
	// rndv is the sender's request for rendezvous transfers; nil means
	// the message was sent eagerly and its payload has fully arrived.
	rndv *Request
}

// freeList recycles the records of operations that are over. Every
// thread of a world runs under one Sim.Run, one at a time, so it needs
// no lock.
type freeList[T any] struct{ free []*T }

func (f *freeList[T]) get() *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return x
	}
	return new(T)
}

// put zeroes x and keeps it for the next get; nothing may still refer
// to it.
func (f *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	f.free = append(f.free, x)
}

func (p *Proc) newRequest() *Request {
	r := p.task.w.reqs.get()
	r.p = p
	return r
}

// mailbox holds, per destination task, the arrived-but-unmatched
// envelopes and the posted-but-unmatched receives, both FIFO so that
// MPI's non-overtaking matching rule holds.
type mailbox struct {
	arrived []*message
	posted  []*Request
}

func match(r *Request, m *message) bool {
	return (r.wantSrc == AnySource || r.wantSrc == m.src) &&
		(r.wantTag == AnyTag || r.wantTag == m.tag)
}

// finish marks a request done and wakes its waiter, if any.
func (w *World) finish(r *Request) {
	r.done = true
	if r.waiter != nil {
		t := r.waiter
		r.waiter = nil
		w.M.Sim.Unblock(t)
	}
}

// completeMatch resolves a (recv request, message) match. For eager
// messages the receive completes immediately; for rendezvous the
// transfer starts now and both sides complete after the bandwidth term.
// Either way the message is over once the receive has its envelope.
func (w *World) completeMatch(dst *Task, r *Request, m *message) {
	if m.rndv == nil {
		w.finishRecv(r, m)
		return
	}
	done := w.transfer(m.srcTask, dst, m.bytes)
	w.M.Sim.After(done, func() {
		sender := m.rndv
		w.finishRecv(r, m)
		w.finish(sender)
	})
}

// finishRecv hands m's envelope to the receive request, recycles m and
// completes the request.
func (w *World) finishRecv(r *Request, m *message) {
	r.Info = RecvInfo{Source: m.src, Tag: m.tag, Bytes: m.bytes, Seqno: m.seqno}
	w.msgs.put(m)
	w.finish(r)
}

// deliver handles an envelope arriving at dst: match a posted receive or
// queue as unexpected.
func (w *World) deliver(dst *Task, m *message) {
	for i, r := range dst.mbox.posted {
		if match(r, m) {
			dst.mbox.posted = append(dst.mbox.posted[:i], dst.mbox.posted[i+1:]...)
			w.completeMatch(dst, r, m)
			return
		}
	}
	dst.mbox.arrived = append(dst.mbox.arrived, m)
}

// isendCore starts a send and returns its request; no tracing.
func (p *Proc) isendCore(dst int, tag int32, bytes int) *Request {
	w := p.task.w
	src := p.task
	dstT := w.task(dst)
	seqno := w.M.Facilities[src.Node].NextSeqno(src.Rank, int32(dst))
	req := p.newRequest()
	req.isSend, req.seqno = true, seqno
	m := w.msgs.get()
	*m = message{src: src.Rank, tag: tag, bytes: bytes, seqno: seqno, srcTask: src}
	if bytes <= w.cfg.EagerThreshold {
		// Eager: buffered locally; the send is complete at once and the
		// payload arrives after the full alpha+beta latency.
		req.done = true
		w.M.Sim.After(w.latency(src, dstT, bytes), func() { w.deliver(dstT, m) })
	} else {
		// Rendezvous: the ready-to-send envelope arrives after alpha; the
		// send completes only when the matched transfer finishes.
		m.rndv = req
		alpha := w.cfg.LatencyInter
		if src.Node == dstT.Node {
			alpha = w.cfg.LatencyIntra
		}
		w.M.Sim.After(alpha, func() { w.deliver(dstT, m) })
	}
	return req
}

// irecvCore posts a receive and returns its request; no tracing.
func (p *Proc) irecvCore(src, tag int32) *Request {
	w := p.task.w
	t := p.task
	req := p.newRequest()
	req.wantSrc, req.wantTag = src, tag
	for i, m := range t.mbox.arrived {
		if match(req, m) {
			t.mbox.arrived = append(t.mbox.arrived[:i], t.mbox.arrived[i+1:]...)
			w.completeMatch(t, req, m)
			return req
		}
	}
	t.mbox.posted = append(t.mbox.posted, req)
	return req
}

// waitCore blocks the calling thread until the request completes.
func (p *Proc) waitCore(r *Request) {
	if r.p != p {
		panic("mpisim: Wait on a request owned by another thread")
	}
	for !r.done {
		r.waiter = p.th
		p.th.Block()
	}
}

// --- Traced point-to-point operations ---

// Send performs a blocking standard-mode send of bytes to dst with tag.
func (p *Proc) Send(dst int, tag int32, bytes int) {
	p.enter(events.EvMPISend)
	req := p.isendCore(dst, tag, bytes)
	p.waitCore(req)
	p.exit(events.EvMPISend,
		uint64(dst), uint64(uint32(tag)), uint64(bytes), req.seqno, 0, addrOf(events.EvMPISend))
	p.task.w.reqs.put(req)
}

// Recv performs a blocking receive matching (src, tag), either of which
// may be the Any* wildcard, and returns the matched message's info.
func (p *Proc) Recv(src, tag int32) RecvInfo {
	p.enter(events.EvMPIRecv)
	req := p.irecvCore(src, tag)
	p.waitCore(req)
	i := req.Info
	p.exit(events.EvMPIRecv,
		uint64(uint32(i.Source)), uint64(uint32(i.Tag)), uint64(i.Bytes), i.Seqno, 0, addrOf(events.EvMPIRecv))
	p.task.w.reqs.put(req)
	return i
}

// Ssend performs a synchronous-mode send: it completes only when the
// matching receive has been posted and the transfer has finished,
// regardless of message size (a forced rendezvous).
func (p *Proc) Ssend(dst int, tag int32, bytes int) {
	p.enter(events.EvMPISsend)
	w := p.task.w
	src := p.task
	dstT := w.task(dst)
	seqno := w.M.Facilities[src.Node].NextSeqno(src.Rank, int32(dst))
	req := p.newRequest()
	req.isSend, req.seqno = true, seqno
	m := w.msgs.get()
	*m = message{src: src.Rank, tag: tag, bytes: bytes, seqno: seqno, srcTask: src, rndv: req}
	alpha := w.cfg.LatencyInter
	if src.Node == dstT.Node {
		alpha = w.cfg.LatencyIntra
	}
	w.M.Sim.After(alpha, func() { w.deliver(dstT, m) })
	p.waitCore(req)
	p.exit(events.EvMPISsend,
		uint64(dst), uint64(uint32(tag)), uint64(bytes), seqno, 0, addrOf(events.EvMPISsend))
	w.reqs.put(req)
}

// Isend starts a nonblocking send and returns its request.
func (p *Proc) Isend(dst int, tag int32, bytes int) *Request {
	p.enter(events.EvMPIIsend)
	req := p.isendCore(dst, tag, bytes)
	p.exit(events.EvMPIIsend,
		uint64(dst), uint64(uint32(tag)), uint64(bytes), req.seqno, 0, addrOf(events.EvMPIIsend))
	return req
}

// Irecv posts a nonblocking receive and returns its request. The exit
// record carries the posted (possibly wildcard) envelope; the matched
// values become available in the request after Wait.
func (p *Proc) Irecv(src, tag int32) *Request {
	p.enter(events.EvMPIIrecv)
	req := p.irecvCore(src, tag)
	p.exit(events.EvMPIIrecv,
		uint64(uint32(src)), uint64(uint32(tag)), 0, 0, 0, addrOf(events.EvMPIIrecv))
	return req
}

// Wait blocks until the request completes. For receive requests the exit
// record carries the matched envelope (source, seqno, bytes) so that the
// utilities can pair Irecv+Wait with the corresponding send.
func (p *Proc) Wait(r *Request) {
	p.enter(events.EvMPIWait)
	p.waitCore(r)
	var peer, seqno, bytes uint64
	if !r.isSend {
		peer = uint64(uint32(r.Info.Source))
		seqno = r.Info.Seqno
		bytes = uint64(r.Info.Bytes)
	}
	p.exit(events.EvMPIWait, 1, peer, seqno, bytes, addrOf(events.EvMPIWait))
}

// Waitall blocks until every request completes. The exit record carries,
// in its vector field, a (peer, seqno, bytes) envelope triple for every
// completed receive request, so message matching works for
// Irecv+Waitall exactly as it does for Irecv+Wait.
func (p *Proc) Waitall(rs ...*Request) {
	p.enter(events.EvMPIWaitall)
	args := []uint64{uint64(len(rs)), addrOf(events.EvMPIWaitall)}
	for _, r := range rs {
		p.waitCore(r)
		if !r.isSend && r.Info.Seqno != 0 {
			args = append(args,
				uint64(uint32(r.Info.Source)), r.Info.Seqno, uint64(r.Info.Bytes))
		}
	}
	p.exit(events.EvMPIWaitall, args...)
}

// Sendrecv sends sbytes to dst and receives from src in one call.
func (p *Proc) Sendrecv(dst int, stag int32, sbytes int, src, rtag int32) RecvInfo {
	p.enter(events.EvMPISendrecv)
	sreq := p.isendCore(dst, stag, sbytes)
	rreq := p.irecvCore(src, rtag)
	p.waitCore(sreq)
	p.waitCore(rreq)
	i := rreq.Info
	p.exit(events.EvMPISendrecv,
		uint64(dst), uint64(uint32(stag)), uint64(sbytes), uint64(i.Bytes), sreq.seqno,
		uint64(uint32(i.Source)), i.Seqno, 0, addrOf(events.EvMPISendrecv))
	p.task.w.reqs.put(sreq)
	p.task.w.reqs.put(rreq)
	return i
}

// Pending reports the number of unmatched arrived envelopes and posted
// receives of a task; useful for leak checks in tests.
func (w *World) Pending(rank int) (arrived, posted int) {
	t := w.task(rank)
	return len(t.mbox.arrived), len(t.mbox.posted)
}
