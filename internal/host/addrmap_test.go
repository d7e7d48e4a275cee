package host

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"fcc/internal/flit"
)

// refAddrMap is the reference address map FuzzAddrMap checks AddrMap
// against: Add scans every region for an overlap, appends and re-sorts
// the whole slice, and Lookup scans every region. Its errors read
// exactly as AddrMap's.
type refAddrMap struct {
	regions []Region
}

func (m *refAddrMap) Add(r Region) error {
	if r.Size == 0 {
		return fmt.Errorf("host: empty region %q", r.Name)
	}
	if r.End() < r.Base {
		return fmt.Errorf("host: region %q at %#x wraps past 2^64", r.Name, r.Base)
	}
	for _, x := range m.regions {
		if r.Base < x.End() && x.Base < r.End() {
			return fmt.Errorf("host: region %q overlaps %q", r.Name, x.Name)
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Base < m.regions[j].Base })
	return nil
}

func (m *refAddrMap) Lookup(addr uint64) *Region {
	for i := range m.regions {
		if x := &m.regions[i]; x.Base <= addr && addr < x.End() {
			return x
		}
	}
	return nil
}

// fuzzRegion builds the n-th region a fuzz input asks for. op%4 picks
// the shape; a and b place and size it.
func fuzzRegion(have []Region, n int, op byte, a, b uint64) Region {
	r := Region{Name: fmt.Sprintf("r%d", n), Local: op&0x10 != 0, Port: flit.PortID(n), DevBase: a << 12}
	switch op % 4 {
	case 0: // a small grid, where overlaps and empty regions are common
		r.Base, r.Size = a*16, b%8*16
	case 1: // flush against a mapped region, above or below it
		if len(have) > 0 {
			x := have[int(a)%len(have)]
			r.Size = b / 2 * 16
			if b%2 == 0 {
				r.Base = x.End()
			} else {
				r.Base = x.Base - r.Size
			}
		}
	case 2: // at 2^64 - 16a: fits below 2^64, ends on it or wraps past it
		r.Base, r.Size = -(a * 16), b*8
	case 3: // spans of 2^56 bytes, which also wrap
		r.Base, r.Size = a<<56, b<<56
	}
	return r
}

// fuzzProbe picks a probe address: a region's first or last byte or a
// byte just outside it, else an address on the small grid or near 2^64.
func fuzzProbe(have []Region, op byte, a, b uint64) uint64 {
	if op&0x40 != 0 && len(have) > 0 {
		x := have[int(a)%len(have)]
		switch b % 4 {
		case 0:
			return x.Base
		case 1:
			return x.Base - 1
		case 2:
			return x.End() - 1
		default:
			return x.End()
		}
	}
	if op%2 == 0 {
		return a*16 + b%16
	}
	return -(a * 16) + b
}

// FuzzAddrMap cuts its input into three-byte steps (op, a, b). A step
// with op's top bit clear adds fuzzRegion's region to AddrMap and to
// refAddrMap; one with it set probes both at fuzzProbe's address. They
// must return the same error text from every Add, hold the same
// regions in the same order, and find the same region at every probe.
func FuzzAddrMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ref := NewAddrMap(), &refAddrMap{}
		for n := 0; len(data) >= 3; n++ {
			op, a, b := data[0], uint64(data[1]), uint64(data[2])
			data = data[3:]
			if op&0x80 != 0 {
				addr := fuzzProbe(ref.regions, op, a, b)
				got, want := m.Lookup(addr), ref.Lookup(addr)
				if (got == nil) != (want == nil) || got != nil && *got != *want {
					t.Fatalf("step %d: Lookup(%#x) = %+v, reference %+v", n, addr, got, want)
				}
				continue
			}
			r := fuzzRegion(ref.regions, n, op, a, b)
			err, werr := m.Add(r), ref.Add(r)
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("step %d: Add(%+v) = %v, reference %v", n, r, err, werr)
			}
			if !slices.Equal(m.Regions(), ref.regions) {
				t.Fatalf("step %d: after Add(%+v)\nregions   %+v\nreference %+v", n, r, m.Regions(), ref.regions)
			}
		}
	})
}
