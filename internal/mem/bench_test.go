package mem

import (
	"testing"

	"fcc/internal/sim"
)

// BenchmarkDRAMRead measures the device timing model's event cost.
func BenchmarkDRAMRead(b *testing.B) {
	eng := sim.NewEngine()
	d := NewDRAM(eng, DefaultDRAM(), 1<<30)
	done := 0
	count := func() { done++ }
	var buf [64]byte
	eng.Go("driver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			d.Read(uint64(i%1000)*64, buf[:], count)
			p.Sleep(40 * sim.Nanosecond)
		}
	})
	b.ResetTimer()
	eng.Run()
	if done != b.N {
		b.Fatalf("done %d != %d", done, b.N)
	}
}

// BenchmarkStoreWrite64 measures the sparse backing store.
func BenchmarkStoreWrite64(b *testing.B) {
	s := NewStore(1 << 30)
	for i := 0; i < b.N; i++ {
		s.Write64(uint64(i%100000)*8, uint64(i))
	}
}
