package host

import (
	"fmt"

	"fcc/internal/flit"
)

// Region is one range of the host physical address space. Local regions
// are served by the host's DIMMs; remote regions by a fabric-attached
// memory device (the paper's "eclectic memory nodes", §3 D#2 — the node
// type is a property of the device and the software layered above, the
// address map only says where bytes live).
type Region struct {
	Name  string
	Base  uint64
	Size  uint64
	Local bool
	Port  flit.PortID // device port for remote regions
	// DevBase is the address within the device where this region begins
	// (host address Base maps to device address DevBase).
	DevBase uint64
}

// End reports one past the last address of the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// AddrMap is the host's physical memory map: disjoint regions sorted by
// base address.
type AddrMap struct {
	regions []Region
}

// NewAddrMap returns an empty map.
func NewAddrMap() *AddrMap { return &AddrMap{} }

// Add inserts a region; an empty region, one whose end wraps past 2^64,
// or one overlapping an existing region is an error. An overlap names
// the lowest region it hits. Add costs a binary search and one shift of
// the regions above the new one.
func (m *AddrMap) Add(r Region) error {
	if r.Size == 0 {
		return fmt.Errorf("host: empty region %q", r.Name)
	}
	if r.End() < r.Base {
		return fmt.Errorf("host: region %q at %#x wraps past 2^64", r.Name, r.Base)
	}
	// i is the first region based at or above r. The regions are
	// disjoint, so only i-1 can reach into r from below, and if it does
	// not, i is the lowest region r can reach.
	i, hi := 0, len(m.regions)
	for i < hi {
		mid := (i + hi) / 2
		if m.regions[mid].Base < r.Base {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	if i > 0 && m.regions[i-1].End() > r.Base {
		return fmt.Errorf("host: region %q overlaps %q", r.Name, m.regions[i-1].Name)
	}
	if i < len(m.regions) && m.regions[i].Base < r.End() {
		return fmt.Errorf("host: region %q overlaps %q", r.Name, m.regions[i].Name)
	}
	m.regions = append(m.regions, Region{})
	copy(m.regions[i+1:], m.regions[i:])
	m.regions[i] = r
	return nil
}

// Lookup finds the region containing addr, or nil.
func (m *AddrMap) Lookup(addr uint64) *Region {
	lo, hi := 0, len(m.regions)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		r := &m.regions[mid]
		switch {
		case addr < r.Base:
			hi = mid - 1
		case addr >= r.End():
			lo = mid + 1
		default:
			return r
		}
	}
	return nil
}

// MustLookup is Lookup that panics on unmapped addresses (a model bug).
func (m *AddrMap) MustLookup(addr uint64) *Region {
	r := m.Lookup(addr)
	if r == nil {
		panic(fmt.Sprintf("host: access to unmapped address %#x", addr))
	}
	return r
}

// Regions lists the mapped regions in address order.
func (m *AddrMap) Regions() []Region { return m.regions }

// DevAddr translates a host address to the device-local address.
func (r *Region) DevAddr(addr uint64) uint64 { return addr - r.Base + r.DevBase }
