package exp

import (
	"fmt"

	"fcc"
	"fcc/internal/flit"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// The two request drivers the experiments share: hostStreams runs one
// request at a time per host with think time between (E9, E10, E12 and
// E13), and ClosedLoop keeps a window of requests in flight (C2–C4, E4,
// E5 and cmd/fabsim). What differs between callers is passed in.

// stream is the request loop every host of a run executes.
type stream struct {
	// stagger is host hi's start delay. At 0 the host starts at once:
	// even a zero Sleep yields and renumbers the events after it.
	stagger func(hi int) sim.Time
	// pkt builds host hi's op-th request from the host's own rng.
	pkt func(hi, op int, rng *sim.RNG) *flit.Packet
	// think is the pause after each request.
	think func(rng *sim.RNG) sim.Time
}

// scaleStream is the steady-state stream of E10, E12 and E13. Hosts
// start prime-staggered, so no two tick in lockstep, and think 200 to
// 999 ns after each request. Host hi's op-th request goes to a random
// line of its near FAM (the one on its own switch when FAMs are spread
// like hosts) or, for every localEvery-th op and for all of them when
// localEvery ≤ 1, of the FAM halfway across the ID space.
func scaleStream(c *fcc.Cluster, localEvery int) stream {
	n := len(c.FAMs)
	return stream{
		stagger: func(hi int) sim.Time { return sim.Time(1 + hi*7919) }, // in ps
		pkt: func(hi, op int, rng *sim.RNG) *flit.Packet {
			fam := (hi + n/2) % n
			if localEvery > 1 && op%localEvery != localEvery-1 {
				fam = hi % n
			}
			return memOp(c.FAMs[fam].ID(), uint64(rng.Intn(1<<16))*64, op)
		},
		think: func(rng *sim.RNG) sim.Time { return sim.Time(200+rng.Intn(800)) * sim.Nanosecond },
	}
}

// blastStream is E9's stream on the 4-switch ring. Every host starts at
// once, thinks 500 ns after each request, and cycles through 256 lines
// of its own 64 KiB slice of the FAM two switches across the ring.
func blastStream(c *fcc.Cluster) stream {
	return stream{
		stagger: func(int) sim.Time { return 0 },
		pkt: func(hi, op int, _ *sim.RNG) *flit.Packet {
			return memOp(c.FAMs[(hi%4+2)%4].ID(), uint64(hi)<<16+uint64(op%256)*64, op)
		},
		think: func(*sim.RNG) sim.Time { return 500 * sim.Nanosecond },
	}
}

// memOp is the op-th request of a stream: a 64 B read of addr at dst,
// every third one a 64 B write.
func memOp(dst flit.PortID, addr uint64, op int) *flit.Packet {
	pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: dst, Addr: addr, ReqLen: 64}
	if op%3 == 2 {
		pkt.Op, pkt.ReqLen, pkt.Size = flit.OpMemWr, 0, 64
	}
	return pkt
}

// hostStreams starts s on every host of c, each on its host's engine:
// host hi waits s.stagger(hi), then issues ops requests one at a time,
// each with up to 3 retries 20 µs apart, thinking after each. Every
// host draws from its own fork of seed. finish, when set, runs as each
// host's stream ends. The returned tally counts each request as it is
// issued and again as it ends.
func hostStreams(c *fcc.Cluster, seed uint64, ops int, s stream, finish func()) *tally {
	t := &tally{make([]int, len(c.Hosts)), make([]int, len(c.Hosts)), make([]int, len(c.Hosts))}
	for hi, h := range c.Hosts {
		ep := h.Endpoint()
		rng := sim.NewRNG(seed).Fork(uint64(hi))
		h.Engine().Go(h.Name(), func(p *sim.Proc) {
			if d := s.stagger(hi); d > 0 {
				p.Sleep(d)
			}
			for op := 0; op < ops; op++ {
				pkt := s.pkt(hi, op, rng)
				t.issued[hi]++
				_, err := ep.RequestP(p, pkt, 3, 20*sim.Microsecond)
				t.count(hi, err)
				p.Sleep(s.think(rng))
			}
			if finish != nil {
				finish()
			}
		})
	}
	return t
}

// stopManager is a finish hook that stops c's manager, if c has one, on
// its n-th call: the manager's health sweep never drains on its own.
func stopManager(c *fcc.Cluster, n int) func() {
	return func() {
		if n--; n == 0 && c.Manager != nil {
			c.Manager.Stop()
		}
	}
}

// tally is a run's per-host request accounting. Once the run has
// drained, each host's issued requests must equal its committed plus
// its typed failures: a request still waiting is one the fabric lost.
type tally struct{ issued, committed, typed []int }

// count records how one of host hi's requests ended; an untyped failure
// panics.
func (t *tally) count(hi int, err error) {
	switch {
	case err == nil:
		t.committed[hi]++
	case txn.Typed(err):
		t.typed[hi]++
	default:
		panic(fmt.Sprintf("exp: untyped failure: %v", err))
	}
}

// account folds the tally and c's counters into one BlastVariant.
func (t *tally) account(c *fcc.Cluster) BlastVariant {
	var v BlastVariant
	v.Hosts = len(c.Hosts)
	for hi, h := range c.Hosts {
		v.Issued += t.issued[hi]
		v.Committed += t.committed[hi]
		v.TypedErrors += t.typed[hi]
		ep := h.Endpoint()
		v.Retries += ep.Retries.Value()
		v.Timeouts += ep.Timeouts.Value()
		switch {
		case t.typed[hi] > 0:
			v.SeveredHosts++
		case ep.Retries.Value() > 0 || ep.Timeouts.Value() > 0:
			v.DegradedHosts++
		default:
			v.CleanHosts++
		}
	}
	v.Unaccounted = v.Issued - v.Committed - v.TypedErrors
	for _, sw := range c.Builder.Switches() {
		v.PktsDropped += sw.PktsDropped.Value() + sw.NoRoute.Value()
	}
	if c.Manager != nil {
		v.Reroutes = c.Manager.Reroutes.Value()
	}
	return v
}

// ClosedLoop keeps up to window requests in flight on eng from time 0
// until count have been issued (math.MaxInt: until the run stops).
// issue(i, done) starts the i-th request, i counting from 1, and calls
// done once it completes, which issues the next.
func ClosedLoop(eng *sim.Engine, window, count int, issue func(i int, done func())) {
	inflight, sent := 0, 0
	var pump func()
	done := func() {
		inflight--
		pump()
	}
	pump = func() {
		for inflight < window && sent < count {
			inflight++
			sent++
			issue(sent, done)
		}
	}
	eng.After(0, pump)
}
