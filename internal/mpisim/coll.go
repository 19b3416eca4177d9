package mpisim

import (
	"fmt"
	"math"
	"sort"

	"tracefw/internal/clock"
	"tracefw/internal/events"
)

// Comm is a communicator: an ordered group of task ranks. Communicator 0
// is the world.
type Comm struct {
	w     *World
	id    int32
	ranks []int32 // world ranks, in communicator-rank order
}

// ID returns the communicator id recorded in trace records.
func (c *Comm) ID() int32 { return c.id }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ranks) }

// RankOf returns p's rank within c, or -1 when p's task is not a member.
func (c *Comm) RankOf(p *Proc) int {
	for i, r := range c.ranks {
		if r == p.task.Rank {
			return i
		}
	}
	return -1
}

type collKey struct {
	comm int32
	seq  uint64
}

type collState struct {
	op      events.Type
	waiters []*Request
	// split bookkeeping
	colors []int
	keys   []int
	wranks []int32
}

// join registers the caller in the comm's next collective; when everyone
// has arrived, fire runs (in simulator context) to schedule completion.
func (p *Proc) join(c *Comm, op events.Type, fire func(st *collState)) *Request {
	if c.RankOf(p) < 0 {
		panic(fmt.Sprintf("mpisim: task %d called a collective on comm %d it does not belong to", p.task.Rank, c.id))
	}
	w := p.task.w
	t := p.task
	seq := t.collSeq[c.id]
	t.collSeq[c.id] = seq + 1
	key := collKey{comm: c.id, seq: seq}
	st := w.colls[key]
	if st == nil {
		st = &collState{op: op, waiters: make([]*Request, 0, len(c.ranks))}
		w.colls[key] = st
	}
	if st.op != op {
		panic(fmt.Sprintf("mpisim: mismatched collectives on comm %d: %s vs %s", c.id, st.op.Name(), op.Name()))
	}
	req := p.newRequest()
	st.waiters = append(st.waiters, req)
	if len(st.waiters) == len(c.ranks) {
		delete(w.colls, key)
		fire(st)
	}
	return req
}

// collCost models a log2(P) tree implementation over the inter-node
// network.
func (w *World) collCost(op events.Type, nranks, bytes int) clock.Time {
	if nranks <= 1 {
		return 0
	}
	logp := clock.Time(math.Ceil(math.Log2(float64(nranks))))
	alpha := w.cfg.LatencyInter
	beta := func(b int) clock.Time {
		return clock.Time(math.Round(float64(b) / w.cfg.BWInter * float64(clock.Second)))
	}
	switch op {
	case events.EvMPIBarrier:
		return logp * alpha
	case events.EvMPIBcast, events.EvMPIReduce, events.EvMPIGather, events.EvMPIScatter:
		return logp * (alpha + beta(bytes))
	case events.EvMPIAllreduce:
		return logp * (alpha + 2*beta(bytes))
	case events.EvMPIAlltoall, events.EvMPIAllgather:
		return logp*alpha + clock.Time(nranks-1)*beta(bytes)
	case events.EvMPIScan:
		return logp * (alpha + beta(bytes))
	case events.EvMPIRedScat:
		return logp*(alpha+beta(bytes)) + beta(bytes)
	}
	return logp * alpha
}

// runColl executes the synchronize-then-cost collective pattern: all
// members arrive, then everyone completes cost later.
func (p *Proc) runColl(c *Comm, op events.Type, bytes int) {
	w := p.task.w
	req := p.join(c, op, func(st *collState) {
		cost := w.collCost(op, len(c.ranks), bytes)
		waiters := st.waiters
		w.M.Sim.After(cost, func() {
			for _, r := range waiters {
				w.finish(r)
			}
		})
	})
	p.waitCore(req)
	w.reqs.put(req)
}

// --- Traced collectives on a communicator ---

// Barrier synchronizes all members of c.
func (c *Comm) Barrier(p *Proc) {
	p.enter(events.EvMPIBarrier)
	p.runColl(c, events.EvMPIBarrier, 0)
	p.exit(events.EvMPIBarrier, uint64(uint32(c.id)), addrOf(events.EvMPIBarrier))
}

// Bcast broadcasts bytes from root (communicator rank) to all members.
func (c *Comm) Bcast(p *Proc, root, bytes int) {
	p.enter(events.EvMPIBcast)
	p.runColl(c, events.EvMPIBcast, bytes)
	p.exit(events.EvMPIBcast, uint64(root), uint64(bytes), uint64(uint32(c.id)), addrOf(events.EvMPIBcast))
}

// Reduce reduces bytes from all members to root.
func (c *Comm) Reduce(p *Proc, root, bytes int) {
	p.enter(events.EvMPIReduce)
	p.runColl(c, events.EvMPIReduce, bytes)
	p.exit(events.EvMPIReduce, uint64(root), uint64(bytes), uint64(uint32(c.id)), addrOf(events.EvMPIReduce))
}

// Allreduce reduces bytes across all members, result everywhere.
func (c *Comm) Allreduce(p *Proc, bytes int) {
	p.enter(events.EvMPIAllreduce)
	p.runColl(c, events.EvMPIAllreduce, bytes)
	p.exit(events.EvMPIAllreduce, uint64(bytes), uint64(uint32(c.id)), addrOf(events.EvMPIAllreduce))
}

// Alltoall exchanges bytes between every pair of members.
func (c *Comm) Alltoall(p *Proc, bytes int) {
	p.enter(events.EvMPIAlltoall)
	p.runColl(c, events.EvMPIAlltoall, bytes)
	recvd := bytes * (len(c.ranks) - 1)
	p.exit(events.EvMPIAlltoall, uint64(bytes), uint64(recvd), uint64(uint32(c.id)), addrOf(events.EvMPIAlltoall))
}

// Gather gathers bytes from each member at root.
func (c *Comm) Gather(p *Proc, root, bytes int) {
	p.enter(events.EvMPIGather)
	p.runColl(c, events.EvMPIGather, bytes)
	p.exit(events.EvMPIGather, uint64(root), uint64(bytes), uint64(uint32(c.id)), addrOf(events.EvMPIGather))
}

// Scatter scatters bytes from root to each member.
func (c *Comm) Scatter(p *Proc, root, bytes int) {
	p.enter(events.EvMPIScatter)
	p.runColl(c, events.EvMPIScatter, bytes)
	p.exit(events.EvMPIScatter, uint64(root), uint64(bytes), uint64(uint32(c.id)), addrOf(events.EvMPIScatter))
}

// Scan computes a prefix reduction of bytes across the members.
func (c *Comm) Scan(p *Proc, bytes int) {
	p.enter(events.EvMPIScan)
	p.runColl(c, events.EvMPIScan, bytes)
	p.exit(events.EvMPIScan, uint64(bytes), uint64(uint32(c.id)), addrOf(events.EvMPIScan))
}

// ReduceScatter reduces bytes across the members and scatters the result.
func (c *Comm) ReduceScatter(p *Proc, bytes int) {
	p.enter(events.EvMPIRedScat)
	p.runColl(c, events.EvMPIRedScat, bytes)
	recvd := bytes / len(c.ranks)
	if recvd == 0 {
		recvd = 1
	}
	p.exit(events.EvMPIRedScat, uint64(bytes), uint64(recvd), uint64(uint32(c.id)), addrOf(events.EvMPIRedScat))
}

// Allgather gathers bytes from each member at every member.
func (c *Comm) Allgather(p *Proc, bytes int) {
	p.enter(events.EvMPIAllgather)
	p.runColl(c, events.EvMPIAllgather, bytes)
	recvd := bytes * (len(c.ranks) - 1)
	p.exit(events.EvMPIAllgather, uint64(bytes), uint64(recvd), uint64(uint32(c.id)), addrOf(events.EvMPIAllgather))
}

// opSplit is the pseudo-op code used to detect mismatched collectives
// involving Split; it never appears in trace records.
const opSplit = events.Type(0xfff0)

// Split partitions c by color: members passing the same color form a new
// communicator, ordered by (key, world rank). It is collective over c
// and synchronizes like a barrier; it is not itself a traced MPI event
// (the paper's event set does not include communicator management).
func (c *Comm) Split(p *Proc, color, key int) *Comm {
	if c.RankOf(p) < 0 {
		panic(fmt.Sprintf("mpisim: task %d split a comm it does not belong to", p.task.Rank))
	}
	w := p.task.w
	t := p.task
	seq := t.collSeq[c.id]
	t.collSeq[c.id] = seq + 1
	ck := collKey{comm: c.id, seq: seq}
	st := w.colls[ck]
	if st == nil {
		st = &collState{op: opSplit}
		w.colls[ck] = st
	}
	if st.op != opSplit {
		panic(fmt.Sprintf("mpisim: mismatched collectives on comm %d: %s vs Split", c.id, st.op.Name()))
	}
	req := p.newRequest()
	st.waiters = append(st.waiters, req)
	st.colors = append(st.colors, color)
	st.keys = append(st.keys, key)
	st.wranks = append(st.wranks, t.Rank)
	if len(st.waiters) == len(c.ranks) {
		delete(w.colls, ck)
		c.fireSplit(st)
	}
	p.waitCore(req)
	nc := req.comm
	w.reqs.put(req)
	return nc
}

// fireSplit builds the new communicators deterministically — colors
// ascending, members ordered by (key, world rank) — and completes every
// member after a barrier-like synchronization cost.
func (c *Comm) fireSplit(st *collState) {
	w := c.w
	type member struct {
		color, key int
		wrank      int32
		req        *Request
	}
	ms := make([]member, len(st.waiters))
	for i, r := range st.waiters {
		ms[i] = member{color: st.colors[i], key: st.keys[i], wrank: st.wranks[i], req: r}
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].color != ms[j].color {
			return ms[i].color < ms[j].color
		}
		if ms[i].key != ms[j].key {
			return ms[i].key < ms[j].key
		}
		return ms[i].wrank < ms[j].wrank
	})
	cost := w.collCost(events.EvMPIBarrier, len(c.ranks), 0)
	w.M.Sim.After(cost, func() {
		byColor := map[int]*Comm{}
		for _, m := range ms {
			nc := byColor[m.color]
			if nc == nil {
				nc = &Comm{w: w, id: int32(len(w.comms))}
				w.comms = append(w.comms, nc)
				byColor[m.color] = nc
			}
			nc.ranks = append(nc.ranks, m.wrank)
			m.req.comm = nc
			w.finish(m.req)
		}
	})
}
