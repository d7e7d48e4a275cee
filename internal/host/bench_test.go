package host

import (
	"testing"

	"fcc/internal/sim"
)

// BenchmarkL1Hit measures simulator cost of the cached fast path.
func BenchmarkL1Hit(b *testing.B) {
	eng := sim.NewEngine()
	h := New(eng, "bench", DefaultConfig(), nil)
	eng.Go("driver", func(p *sim.Proc) {
		h.Load64P(p, 0x1000) // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Load64P(p, 0x1000)
		}
	})
	eng.Run()
}

// BenchmarkLocalMiss measures the full L1->L2->DRAM model path.
func BenchmarkLocalMiss(b *testing.B) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.LocalMemSize = 1 << 30
	h := New(eng, "bench", cfg, nil)
	eng.Go("driver", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Load64P(p, (uint64(i)%(1<<18))*4096) // page stride within 1GB: far outpaces the caches
		}
	})
	eng.Run()
}

// BenchmarkRemoteMiss measures a warm remote miss through Load64P on
// the one-switch Table 2 rig: the MSHR fill's round trip to the FAM.
func BenchmarkRemoteMiss(b *testing.B) {
	eng, h, _ := rig(b, nil)
	eng.Go("loader", func(p *sim.Proc) {
		for i := range 256 {
			h.Load64P(p, remoteMissAddr(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Load64P(p, remoteMissAddr(i))
		}
	})
	eng.Run()
}
