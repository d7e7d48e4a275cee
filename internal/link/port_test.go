package link

import (
	"slices"
	"testing"

	"fcc/internal/flit"
	"fcc/internal/phys"
	"fcc/internal/sim"
	"fcc/internal/telemetry"
)

// autoRelease is a sink that records packets and frees buffer instantly.
type autoRelease struct {
	got   []*flit.Packet
	times []sim.Time
	eng   *sim.Engine
}

func (a *autoRelease) Arrive(pkt *flit.Packet, release func()) {
	a.got = append(a.got, pkt)
	if a.eng != nil {
		a.times = append(a.times, a.eng.Now())
	}
	release()
}

func testLink(t *testing.T, mut func(*Config)) (*sim.Engine, *Link, *autoRelease, *autoRelease) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	l, err := New(eng, "test", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := &autoRelease{eng: eng}, &autoRelease{eng: eng}
	l.A().SetSink(sa)
	l.B().SetSink(sb)
	return eng, l, sa, sb
}

func memPacket(tag uint16, size uint32) *flit.Packet {
	return &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Src: 1, Dst: 2,
		Tag: tag, Addr: 0x1000, Size: size}
}

func TestLinkDeliversPacket(t *testing.T) {
	eng, l, _, sb := testLink(t, nil)
	eng.After(0, func() { l.A().Send(memPacket(7, 0)) })
	eng.Run()
	if len(sb.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(sb.got))
	}
	if sb.got[0].Tag != 7 || sb.got[0].Op != flit.OpMemRd {
		t.Fatalf("wrong packet: %v", sb.got[0])
	}
}

func TestLinkBidirectional(t *testing.T) {
	eng, l, sa, sb := testLink(t, nil)
	eng.After(0, func() {
		l.A().Send(memPacket(1, 64))
		l.B().Send(memPacket(2, 64))
	})
	eng.Run()
	if len(sb.got) != 1 || len(sa.got) != 1 {
		t.Fatalf("a=%d b=%d, want 1/1", len(sa.got), len(sb.got))
	}
}

func TestLinkLatencyIsSerPlusProp(t *testing.T) {
	eng, l, _, sb := testLink(t, nil)
	cfg := DefaultConfig()
	eng.After(0, func() { l.A().Send(memPacket(1, 64)) })
	eng.Run()
	// 64B payload + 24B header -> 2 flits in 68B mode. Delivery happens
	// when the LAST flit arrives: 2 serializations + 1 propagation.
	ser := cfg.Phys.SerTime(cfg.Mode.WireBytes())
	want := 2*ser + cfg.Phys.Propagation
	if got := sb.times[0]; got != want {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
}

func TestLinkPipelinesFlits(t *testing.T) {
	// N packets of one flit each: total time ≈ N*ser + prop, not
	// N*(ser+prop) — flits stream back to back.
	eng, l, _, sb := testLink(t, nil)
	const n = 10
	eng.After(0, func() {
		for i := 0; i < n; i++ {
			l.A().Send(memPacket(uint16(i), 0))
		}
	})
	eng.Run()
	cfg := DefaultConfig()
	ser := cfg.Phys.SerTime(cfg.Mode.WireBytes())
	want := sim.Time(n)*ser + cfg.Phys.Propagation
	if got := sb.times[n-1]; got != want {
		t.Fatalf("last delivery at %v, want %v", got, want)
	}
}

func TestLinkPreservesPerVCOrder(t *testing.T) {
	eng, l, _, sb := testLink(t, nil)
	eng.After(0, func() {
		for i := 0; i < 20; i++ {
			l.A().Send(memPacket(uint16(i), 64))
		}
	})
	eng.Run()
	if len(sb.got) != 20 {
		t.Fatalf("delivered %d, want 20", len(sb.got))
	}
	for i, p := range sb.got {
		if p.Tag != uint16(i) {
			t.Fatalf("order violated: pos %d tag %d", i, p.Tag)
		}
	}
}

func TestLinkCreditStallWithoutRelease(t *testing.T) {
	// A sink that never releases must stall the sender once the VC's
	// credits are exhausted.
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.RxBufFlits[flit.ChMem] = 10
	l, err := New(eng, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var held []func()
	l.B().SetSink(SinkFunc(func(pkt *flit.Packet, release func()) {
		held = append(held, release)
	}))
	l.A().SetSink(&autoRelease{})
	eng.After(0, func() {
		for i := 0; i < 10; i++ {
			l.A().Send(memPacket(uint16(i), 64)) // 2 flits each
		}
	})
	eng.Run()
	// 10 credits / 2 flits per packet = 5 packets delivered, then stall.
	if len(held) != 5 {
		t.Fatalf("delivered %d packets, want 5 (credit limit)", len(held))
	}
	if l.A().Credits(flit.ChMem) != 0 {
		t.Fatalf("credits = %d, want 0", l.A().Credits(flit.ChMem))
	}
	// Releasing buffers returns credits and unblocks the rest.
	eng.After(0, func() {
		for _, r := range held[:5] {
			r()
		}
	})
	held = held[:0]
	eng.Run()
	if len(held) != 5 {
		t.Fatalf("after credit return delivered %d more, want 5", len(held))
	}
}

func TestLinkSharedPoolStarvation(t *testing.T) {
	// With a shared credit pool, a firehose of IO bulk can consume all
	// credits; a Mem request then waits far longer than with per-VC
	// buffers. This is the credit-allocation pathology of §3 D#3.
	run := func(shared bool) sim.Time {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.SharedCreditPool = shared
		l, err := New(eng, "t", cfg)
		if err != nil {
			t.Fatal(err)
		}
		// IO packets are held by a very slow consumer (released only
		// after 100us); Mem packets release fast.
		var memAt sim.Time
		l.B().SetSink(SinkFunc(func(pkt *flit.Packet, release func()) {
			if pkt.Chan == flit.ChIO {
				eng.After(100*sim.Microsecond, release)
				return
			}
			memAt = eng.Now()
			release()
		}))
		l.A().SetSink(&autoRelease{})
		eng.After(0, func() {
			for i := 0; i < 40; i++ {
				l.A().Send(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr,
					Src: 1, Dst: 2, Tag: uint16(i), Size: 512})
			}
		})
		// The latency-sensitive Mem read arrives once bulk has consumed
		// every credit it can get (pool of 128 exhausts after ~2.2us).
		issued := 5 * sim.Microsecond
		eng.At(issued, func() { l.A().Send(memPacket(999, 0)) })
		eng.Run()
		if memAt == 0 {
			t.Fatal("mem packet never delivered")
		}
		return memAt - issued
	}
	perVC := run(false)
	pooled := run(true)
	if pooled < 10*perVC {
		t.Fatalf("shared pool mem latency %v not much worse than per-VC %v", pooled, perVC)
	}
}

func TestLinkRetryRecoversFromCorruption(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.RetryEnabled = true
	cfg.Phys.BER = 0.05
	cfg.Seed = 77
	l, err := New(eng, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb := &autoRelease{eng: eng}
	l.B().SetSink(sb)
	l.A().SetSink(&autoRelease{})
	const n = 200
	eng.After(0, func() {
		for i := 0; i < n; i++ {
			l.A().Send(memPacket(uint16(i), 64))
		}
	})
	eng.Run()
	if len(sb.got) != n {
		t.Fatalf("delivered %d, want %d despite corruption", len(sb.got), n)
	}
	for i, p := range sb.got {
		if p.Tag != uint16(i) {
			t.Fatalf("retry broke ordering at %d: tag %d", i, p.Tag)
		}
	}
	if l.B().CRCErrors.Value() == 0 {
		t.Fatal("BER 0.05 injected no errors — test not exercising retry")
	}
	if l.A().Retransmits.Value() != l.B().CRCErrors.Value() {
		t.Fatalf("retransmits %d != crc errors %d",
			l.A().Retransmits.Value(), l.B().CRCErrors.Value())
	}
	if got := l.A().ReplayBufferLen(flit.ChMem); got != 0 {
		t.Fatalf("replay buffer holds %d flits after drain, want 0", got)
	}
}

func TestLinkBERWithoutRetryRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Phys.BER = 0.01
	if _, err := New(sim.NewEngine(), "t", cfg); err == nil {
		t.Fatal("BER without retry accepted")
	}
}

func TestLinkRejectsOversizedPacket(t *testing.T) {
	eng, l, _, _ := testLink(t, nil)
	defer func() {
		if recover() == nil {
			t.Error("oversized packet not rejected")
		}
	}()
	eng.After(0, func() { l.A().Send(memPacket(1, MaxPacketPayload+1)) })
	eng.Run()
}

func TestLinkValidateRejectsTinyBuffers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RxBufFlits[flit.ChIO] = 2 // cannot hold a 512B packet
	if err := cfg.Validate(); err == nil {
		t.Fatal("undersized VC buffer accepted")
	}
}

func TestLinkInterleavingLetsMemPassBulk(t *testing.T) {
	// With flit interleaving (default), a Mem packet submitted after a
	// train of bulk IO packets should overtake them; with packet
	// arbitration it must wait for the head bulk packet to finish, and
	// with a slow IO consumer it waits for queued bulk ahead of it.
	run := func(pktArb bool) sim.Time {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.PacketArbitration = pktArb
		l, err := New(eng, "t", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var memAt sim.Time
		l.B().SetSink(SinkFunc(func(pkt *flit.Packet, release func()) {
			if pkt.Chan == flit.ChMem {
				memAt = eng.Now()
			}
			release()
		}))
		l.A().SetSink(&autoRelease{})
		eng.After(0, func() {
			for i := 0; i < 8; i++ {
				l.A().Send(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr,
					Src: 1, Dst: 2, Tag: uint16(i), Size: 512})
			}
			l.A().Send(memPacket(99, 0))
		})
		eng.Run()
		return memAt
	}
	inter := run(false)
	arb := run(true)
	if inter >= arb {
		t.Fatalf("interleaved mem latency %v not better than packet-arb %v", inter, arb)
	}
}

func TestLinkSetRxBufGrowGrantsCredits(t *testing.T) {
	eng, l, _, _ := testLink(t, nil)
	before := l.A().Credits(flit.ChMem)
	eng.After(0, func() { l.B().SetRxBuf(flit.ChMem, before+16) })
	eng.Run()
	if got := l.A().Credits(flit.ChMem); got != before+16 {
		t.Fatalf("credits after grow = %d, want %d", got, before+16)
	}
}

func TestLinkSetRxBufShrinkAbsorbsReturns(t *testing.T) {
	eng, l, _, sb := testLink(t, nil)
	start := l.A().Credits(flit.ChMem)
	eng.After(0, func() {
		l.B().SetRxBuf(flit.ChMem, start-4) // debt of 4 flits
		// Send 4 packets x 2 flits: 8 flits consumed, 8 returned on
		// release, of which 4 are swallowed by the debt.
		for i := 0; i < 4; i++ {
			l.A().Send(memPacket(uint16(i), 64))
		}
	})
	eng.Run()
	if len(sb.got) != 4 {
		t.Fatalf("delivered %d, want 4", len(sb.got))
	}
	if got := l.A().Credits(flit.ChMem); got != start-4 {
		t.Fatalf("credits after shrink+drain = %d, want %d", got, start-4)
	}
}

func TestLinkSetRxBufBelowPacketPanics(t *testing.T) {
	_, l, _, _ := testLink(t, nil)
	defer func() {
		if recover() == nil {
			t.Error("SetRxBuf below packet size not rejected")
		}
	}()
	l.B().SetRxBuf(flit.ChMem, 1)
}

func TestLinkStatsCountFlits(t *testing.T) {
	eng, l, _, _ := testLink(t, nil)
	eng.After(0, func() {
		l.A().Send(memPacket(1, 64)) // 2 flits
		l.A().Send(memPacket(2, 0))  // 1 flit
	})
	eng.Run()
	if got := l.A().FlitsTx.Value(); got != 3 {
		t.Fatalf("FlitsTx = %d, want 3", got)
	}
	if got := l.B().FlitsRx.Value(); got != 3 {
		t.Fatalf("FlitsRx = %d, want 3", got)
	}
	if got := l.A().PktsTx.Value(); got != 2 {
		t.Fatalf("PktsTx = %d, want 2", got)
	}
	if got := l.B().PktsRx.Value(); got != 2 {
		t.Fatalf("PktsRx = %d, want 2", got)
	}
}

func TestLinkThroughputMatchesWireRate(t *testing.T) {
	// Saturating the link with 512B IO writes should achieve close to
	// the physical payload efficiency: 512B payload per 9 flits * 68B.
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Phys = phys.LinkConfig{GTs: 32, Lanes: 8, Efficiency: 1,
		Propagation: 10 * sim.Nanosecond}
	cfg.RxBufFlits[flit.ChIO] = 64
	l, err := New(eng, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	l.B().SetSink(SinkFunc(func(pkt *flit.Packet, release func()) {
		delivered++
		release()
	}))
	l.A().SetSink(&autoRelease{})
	const n = 2000
	eng.After(0, func() {
		for i := 0; i < n; i++ {
			l.A().Send(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr,
				Src: 1, Dst: 2, Tag: uint16(i), Size: 512})
		}
	})
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d, want %d", delivered, n)
	}
	elapsed := eng.Now().Seconds()
	gbps := float64(n) * 512 / elapsed / 1e9
	wire := cfg.Phys.GBps() * 512 / float64(9*68) // payload efficiency
	if gbps < wire*0.85 || gbps > wire*1.01 {
		t.Fatalf("goodput %.2f GB/s, want ≈%.2f GB/s", gbps, wire)
	}
}

// Property: under randomized traffic across all VCs with corruption and
// retry, every packet is delivered exactly once and per-VC FIFO order
// holds.
func TestLinkFuzzAllVCsWithBER(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.RetryEnabled = true
		cfg.Phys.BER = 0.03
		cfg.Seed = seed
		l, err := New(eng, "fuzz", cfg)
		if err != nil {
			t.Fatal(err)
		}
		nextPerVC := map[flit.Channel]uint16{}
		delivered := 0
		l.B().SetSink(SinkFunc(func(pkt *flit.Packet, release func()) {
			if pkt.Tag != nextPerVC[pkt.Chan] {
				t.Errorf("seed %d: VC %v got tag %d, want %d", seed, pkt.Chan, pkt.Tag, nextPerVC[pkt.Chan])
			}
			nextPerVC[pkt.Chan]++
			delivered++
			release()
		}))
		l.A().SetSink(&autoRelease{})
		rng := sim.NewRNG(seed * 31)
		chans := []flit.Channel{flit.ChIO, flit.ChMem, flit.ChCache, flit.ChCtrl}
		ops := []flit.Op{flit.OpIOWr, flit.OpMemWr, flit.OpCacheWB, flit.OpETrans}
		sent := 0
		perVC := map[flit.Channel]uint16{}
		eng.Go("gen", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				ci := rng.Intn(4)
				size := uint32(rng.Intn(MaxPacketPayload + 1))
				pkt := &flit.Packet{Chan: chans[ci], Op: ops[ci], Src: 1, Dst: 2,
					Tag: perVC[chans[ci]], Size: size}
				perVC[chans[ci]]++
				l.A().Send(pkt)
				sent++
				p.Sleep(sim.Time(rng.Intn(200)) * sim.Nanosecond)
			}
		})
		eng.Run()
		if delivered != sent {
			t.Fatalf("seed %d: delivered %d of %d", seed, delivered, sent)
		}
	}
}

// TestLinkRoundRobinsEligibleVCs pins the transmit arbiter at the wire:
// VCs take turns flit by flit, a VC without credit is passed over (and
// counted in StallPicks once it is all that is left), and a pick that
// finds nothing eligible leaves the rotation where it was.
func TestLinkRoundRobinsEligibleVCs(t *testing.T) {
	eng, l, _, _ := testLink(t, nil)
	a := l.A()
	tr := telemetry.NewTracer(1024)
	a.SetTracer(tr)
	// queue sends one max-size packet on each of IO, Mem and Cache.
	queue := func() {
		a.Send(&flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr, Src: 1, Dst: 2, Size: MaxPacketPayload})
		a.Send(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Src: 1, Dst: 2, Size: MaxPacketPayload})
		a.Send(&flit.Packet{Chan: flit.ChCache, Op: flit.OpCacheWB, Src: 1, Dst: 2, Size: MaxPacketPayload})
	}
	seen := 0
	// sent runs the engine dry and returns the VCs of the flits A put on
	// the wire since its last call.
	sent := func() []flit.Channel {
		eng.Run()
		recs := tr.Records()
		var vcs []flit.Channel
		for _, r := range recs[seen:] {
			if r.Event == telemetry.EvFlitTx {
				vcs = append(vcs, r.VC)
			}
		}
		seen = len(recs)
		return vcs
	}
	flits := DefaultConfig().Mode.FlitsFor(MaxPacketPayload)
	// turns repeats one round of the rotation once per flit of a packet.
	turns := func(round ...flit.Channel) []flit.Channel {
		var vcs []flit.Channel
		for i := 0; i < flits; i++ {
			vcs = append(vcs, round...)
		}
		return vcs
	}

	eng.After(0, func() {
		a.leakCredits(flit.ChIO, a.Credits(flit.ChIO))
		queue()
	})
	if got, want := sent(), turns(flit.ChMem, flit.ChCache); !slices.Equal(got, want) {
		t.Fatalf("IO without credit: sent %v, want %v", got, want)
	}
	if a.StallPicks.Value() == 0 {
		t.Fatal("StallPicks = 0 with IO queued and no credit")
	}

	eng.After(0, a.restoreLeaked)
	if got, want := sent(), turns(flit.ChIO); !slices.Equal(got, want) {
		t.Fatalf("after the heal: sent %v, want %v", got, want)
	}

	// The last pick sent IO, so the rotation stands at Mem, however many
	// idle picks the credit returns have made since. Queue all three
	// while the port is down so the first pick sees them together.
	eng.After(0, func() {
		a.setDown(true)
		queue()
		a.setDown(false)
	})
	if got, want := sent(), turns(flit.ChMem, flit.ChCache, flit.ChIO); !slices.Equal(got, want) {
		t.Fatalf("after idle picks: sent %v, want %v", got, want)
	}
}

// heldPort returns port A of a fresh link, held down with one packet
// queued on each of chans, so pickVC can be asked again and again while
// nothing leaves the port.
func heldPort(t *testing.T, chans ...flit.Channel) *Port {
	t.Helper()
	ops := map[flit.Channel]flit.Op{flit.ChIO: flit.OpIOWr, flit.ChMem: flit.OpMemWr, flit.ChCache: flit.OpCacheWB}
	_, l, _, _ := testLink(t, nil)
	a := l.A()
	a.setDown(true)
	for _, ch := range chans {
		a.Send(&flit.Packet{Chan: ch, Op: ops[ch], Src: 1, Dst: 2})
	}
	return a
}

func TestSchedulerRoundRobinAlternates(t *testing.T) {
	a := heldPort(t, flit.ChIO, flit.ChMem)
	x, y, z := a.pickVC(), a.pickVC(), a.pickVC()
	if x < 0 || y < 0 || x == y || x != z {
		t.Fatalf("round robin picks: %d %d %d", x, y, z)
	}
}

func TestSchedulerRoundRobinSkipsIneligible(t *testing.T) {
	a := heldPort(t, flit.ChIO, flit.ChMem)
	a.leakCredits(flit.ChIO, a.Credits(flit.ChIO))
	for i := 0; i < 3; i++ {
		if got := a.pickVC(); got != int(flit.ChMem) {
			t.Fatalf("pick = %d, want %d (Mem)", got, flit.ChMem)
		}
	}
	a.leakCredits(flit.ChMem, a.Credits(flit.ChMem))
	if got := a.pickVC(); got != -1 {
		t.Fatalf("pick with nothing eligible = %d, want -1", got)
	}
}

// TestSchedulersIdleWithoutEligible checks that a pick finding traffic
// but no credit answers -1 and leaves the rotation where it was: the
// port asked it picks the same VCs afterwards as a twin never asked.
func TestSchedulersIdleWithoutEligible(t *testing.T) {
	all := []flit.Channel{flit.ChIO, flit.ChMem, flit.ChCache}
	asked, twin := heldPort(t, all...), heldPort(t, all...)
	asked.pickVC()
	twin.pickVC()
	for _, vc := range all {
		asked.leakCredits(vc, asked.Credits(vc))
	}
	if got := asked.pickVC(); got != -1 {
		t.Fatalf("pick with nothing eligible = %d, want -1", got)
	}
	asked.restoreLeaked()
	for i := 0; i < 4; i++ {
		if a, b := asked.pickVC(), twin.pickVC(); a != b {
			t.Fatalf("pick %d after an idle pick = %d, want %d", i, a, b)
		}
	}
}

func TestLinkDropsStaleDuplicateRetransmission(t *testing.T) {
	// Regression: a retransmission of a flit the receiver already
	// delivered (its ack raced a NAK) used to be stashed in rxStash
	// forever — a leak that would be mis-delivered on seq wrap. It must
	// be dropped and counted instead.
	eng, l, _, sb := testLink(t, func(c *Config) { c.RetryEnabled = true })
	eng.After(0, func() { l.A().Send(memPacket(1, 0)) })
	// The single flit (seq 0) is delivered at ~12ns; its ack reaches the
	// sender at ~22ns. Injecting a spurious NAK in between models the
	// ack/NAK race: the sender still holds seq 0 in its replay buffer
	// and retransmits a flit the receiver has already accepted.
	eng.At(15*sim.Nanosecond, func() { l.A().handleNak(flit.ChMem, 0) })
	eng.At(40*sim.Nanosecond, func() { l.A().Send(memPacket(2, 0)) })
	eng.Run()

	if got := l.B().DupFlits.Value(); got != 1 {
		t.Fatalf("DupFlits = %d, want 1", got)
	}
	if n := l.B().RxStashLen(flit.ChMem); n != 0 {
		t.Fatalf("rxStash holds %d flits; stale duplicate was stashed", n)
	}
	if len(sb.got) != 2 || sb.got[0].Tag != 1 || sb.got[1].Tag != 2 {
		t.Fatalf("delivered %d packets (%v); want exactly tags 1,2 once each",
			len(sb.got), sb.got)
	}
	if n := l.A().ReplayBufferLen(flit.ChMem); n != 0 {
		t.Fatalf("replay buffer holds %d flits after re-ack, want 0", n)
	}
}

func TestLinkPacketArbitrationStallCountsInStallPicks(t *testing.T) {
	// Regression: when packet arbitration locks the transmitter to a VC
	// and that VC runs out of credits mid-packet, the stall used to
	// bypass StallPicks entirely — the head-of-line metric read zero
	// during the exact pathology it exists to expose.
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.PacketArbitration = true
	for i := range cfg.RxBufFlits {
		cfg.RxBufFlits[i] = 12 // one 9-flit max packet + 3 slack flits
	}
	l, err := New(eng, "t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var delivered int
	l.B().SetSink(SinkFunc(func(pkt *flit.Packet, release func()) {
		delivered++ // hold the release: no credits ever return
	}))
	l.A().SetSink(&autoRelease{})
	eng.After(0, func() {
		l.A().Send(memPacket(1, MaxPacketPayload))
		l.A().Send(memPacket(2, MaxPacketPayload))
	})
	eng.Run()

	// Packet 1 (9 flits) delivers and is held; packet 2 locks the VC,
	// sends the 3 remaining credits' worth, then stalls mid-packet.
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (second packet must stall)", delivered)
	}
	if got := l.A().StallPicks.Value(); got == 0 {
		t.Fatal("StallPicks = 0; locked-VC credit stall went uncounted")
	}
}
