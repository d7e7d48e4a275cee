package link

import (
	"testing"

	"fcc/internal/fault"
	"fcc/internal/flit"
	"fcc/internal/sim"
)

func TestLinkFlapPausesThenResumes(t *testing.T) {
	eng, l, _, sb := testLink(t, nil)
	heal := 10 * sim.Microsecond
	eng.After(0, func() {
		if err := l.InjectFault(fault.Fault{Kind: fault.LinkDown}); err != nil {
			t.Errorf("inject: %v", err)
		}
		l.A().Send(memPacket(1, 64))
	})
	eng.After(heal, func() {
		if err := l.HealFault(fault.LinkDown); err != nil {
			t.Errorf("heal: %v", err)
		}
	})
	eng.Run()
	if len(sb.got) != 1 {
		t.Fatalf("delivered %d packets across a flap, want 1 (lossless)", len(sb.got))
	}
	if sb.times[0] < heal {
		t.Fatalf("packet delivered at %v, before the link healed at %v", sb.times[0], heal)
	}
}

func TestLinkDownReportsFailedAt(t *testing.T) {
	eng, l, _, _ := testLink(t, nil)
	at := 3 * sim.Microsecond
	eng.After(at, func() { l.InjectFault(fault.Fault{Kind: fault.LinkDown}) })
	eng.Run()
	if !l.Down() {
		t.Fatal("link not down after LinkDown")
	}
	if l.FailedAt() != at {
		t.Fatalf("FailedAt = %v, want %v", l.FailedAt(), at)
	}
}

func TestLaneDegradeSlowsSerialization(t *testing.T) {
	deliver := func(factor int) sim.Time {
		eng, l, _, sb := testLink(t, nil)
		eng.After(0, func() {
			if factor > 1 {
				if err := l.InjectFault(fault.Fault{Kind: fault.LaneDegrade, Factor: factor}); err != nil {
					t.Errorf("inject: %v", err)
				}
			}
			l.A().Send(memPacket(1, 64))
		})
		eng.Run()
		if len(sb.got) != 1 {
			t.Fatalf("delivered %d packets, want 1", len(sb.got))
		}
		return sb.times[0]
	}
	full := deliver(1)
	quarter := deliver(4)
	// 64B+header = 2 flits = 2 serializations + 1 propagation; only the
	// serializations scale with the lane factor.
	cfg := DefaultConfig()
	ser := cfg.Phys.SerTime(cfg.Mode.WireBytes())
	if want := full + 3*2*ser; quarter != want {
		t.Fatalf("x4-degraded delivery at %v, want %v (full-width %v)", quarter, want, full)
	}
	// Healing restores full-width timing.
	eng, l, _, sb := testLink(t, nil)
	eng.After(0, func() {
		l.InjectFault(fault.Fault{Kind: fault.LaneDegrade, Factor: 4})
		l.HealFault(fault.LaneDegrade)
		l.A().Send(memPacket(1, 64))
	})
	eng.Run()
	if sb.times[0] != full {
		t.Fatalf("post-heal delivery at %v, want %v", sb.times[0], full)
	}
}

func TestCreditLeakStallsUntilHealed(t *testing.T) {
	// Per-VC credits: a leak of Mem's whole buffer stalls a Mem packet.
	// A shared pool: a leak of the whole pool (128 flits), injected on
	// Mem, stalls an IO packet too, since every VC spends from the pool.
	for _, tc := range []struct {
		shared bool
		leak   int // the whole VC buffer or pool, DefaultConfig's 32 flits a VC
		pkt    *flit.Packet
	}{
		{false, 32, memPacket(1, 64)},
		{true, 128, &flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr, Src: 1, Dst: 2, Tag: 1, Size: 64}},
	} {
		shared, leak := tc.shared, tc.leak
		eng, l, _, sb := testLink(t, func(c *Config) { c.SharedCreditPool = shared })
		heal := 20 * sim.Microsecond
		eng.After(0, func() {
			if err := l.InjectFault(fault.Fault{Kind: fault.CreditLeak, VC: int(flit.ChMem), Credits: leak}); err != nil {
				t.Errorf("inject: %v", err)
			}
			l.A().Send(tc.pkt)
		})
		eng.After(heal, func() {
			if err := l.HealFault(fault.CreditLeak); err != nil {
				t.Errorf("heal: %v", err)
			}
		})
		eng.Run()
		if len(sb.got) != 1 {
			t.Fatalf("shared=%v: delivered %d packets across a credit leak, want 1", shared, len(sb.got))
		}
		if sb.times[0] < heal {
			t.Fatalf("shared=%v: packet delivered at %v with zero credits (heal at %v)", shared, sb.times[0], heal)
		}
		// Healing restored exactly the leaked credits: after the queue
		// drained, every VC's transmit-side balance is back to the full
		// buffer or pool.
		for vc := flit.Channel(0); vc < flit.NumChannels; vc++ {
			if got := l.A().Credits(vc); got != leak {
				t.Fatalf("shared=%v: post-heal credits on %v = %d, want %d", shared, vc, got, leak)
			}
		}
	}
}

func TestLinkFaultValidation(t *testing.T) {
	_, l, _, _ := testLink(t, nil)
	if err := l.InjectFault(fault.Fault{Kind: fault.LaneDegrade, Factor: 1}); err == nil {
		t.Fatal("Factor 1 lane degrade accepted")
	}
	if err := l.InjectFault(fault.Fault{Kind: fault.CreditLeak, VC: 99, Credits: 1}); err == nil {
		t.Fatal("out-of-range VC accepted")
	}
	if err := l.InjectFault(fault.Fault{Kind: fault.SwitchCrash}); err == nil {
		t.Fatal("unsupported kind accepted")
	}
	if l.Supports(fault.SwitchCrash) {
		t.Fatal("link claims to support switch-crash")
	}
}
