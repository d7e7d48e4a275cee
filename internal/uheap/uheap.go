// Package uheap implements FCC Design Principle #2 and UniFabric's
// unified heap manager (§5(2)): an "active and unified heap" over
// heterogeneous memory nodes. Memory regions from different
// fabric-attached nodes (and host-local DRAM) are instantiated as pools
// of various-sized bins; a segregated-fit allocator places objects; a
// runtime profiles per-object access temperature and migrates objects
// between pools — hot objects toward host-local memory, cold ones out
// to capacity-rich fabric memory — behind a stable smart-pointer
// handle, so programs never observe addresses changing (a memkind-style
// interface with an active runtime underneath).
package uheap

import (
	"errors"
	"fmt"
	"sort"

	"fcc/internal/host"
	"fcc/internal/sim"
)

// Class orders pools from fastest to slowest.
type Class uint8

// Pool performance classes.
const (
	ClassLocal Class = iota // host DIMMs
	ClassNear               // fast fabric memory (e.g. same-rack FAM)
	ClassFar                // capacity FAM, slowest
	numClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassLocal:
		return "local"
	case ClassNear:
		return "near"
	case ClassFar:
		return "far"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// PoolSpec declares one memory pool: a host-address range (local DRAM
// or a mapped fabric region) and its class.
type PoolSpec struct {
	Name  string
	Base  uint64
	Size  uint64
	Class Class
}

// minBin is the smallest allocation bin (one cacheline).
const minBin = 64

// maxBinShift: bins go 64B..1MB in power-of-two classes.
const maxBinShift = 20

// pool is one instantiated memory pool with segregated free lists.
type pool struct {
	spec PoolSpec
	next uint64 // bump pointer within [Base, Base+Size)
	free [maxBinShift + 1][]uint64
	used uint64
}

// binShift returns the size-class shift for a request.
func binShift(size uint64) (uint, error) {
	if size == 0 {
		return 0, errors.New("uheap: zero-size allocation")
	}
	if size > 1<<maxBinShift {
		return 0, fmt.Errorf("uheap: allocation %d exceeds max bin %d", size, 1<<maxBinShift)
	}
	s := uint(6) // 64B
	for uint64(1)<<s < size {
		s++
	}
	return s, nil
}

// alloc carves a block of the given class, or reports failure.
func (pl *pool) alloc(shift uint) (uint64, bool) {
	if lst := pl.free[shift]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		pl.free[shift] = lst[:len(lst)-1]
		pl.used += 1 << shift
		return addr, true
	}
	sz := uint64(1) << shift
	if pl.next+sz > pl.spec.Size {
		return 0, false
	}
	addr := pl.spec.Base + pl.next
	pl.next += sz
	pl.used += sz
	return addr, true
}

func (pl *pool) release(addr uint64, shift uint) {
	pl.free[shift] = append(pl.free[shift], addr)
	pl.used -= 1 << shift
}

// Obj is a smart-pointer handle to a heap object. The object's physical
// placement may change under it; accesses always reach the current
// location and feed the temperature profile.
type Obj struct {
	hp    *Heap
	id    uint64
	size  uint64
	shift uint
	addr  uint64
	pool  *pool
	heat  float64
	freed bool
	// migrating blocks accessors until the runtime finishes moving the
	// object's bytes; waiters holds their wakeups.
	migrating bool
	waiters   []func()
}

// Size reports the object's requested size in bytes.
func (o *Obj) Size() uint64 { return o.size }

// Pool reports the object's current pool name (placement is advisory;
// it may change at any epoch).
func (o *Obj) Pool() string { return o.pool.spec.Name }

// Class reports the object's current pool class.
func (o *Obj) Class() Class { return o.pool.spec.Class }

// Config tunes the heap runtime.
type Config struct {
	// Epoch is the profiling/migration period. 0 disables migration.
	Epoch sim.Time
	// Decay multiplies each object's heat every epoch.
	Decay float64
	// MaxMovesPerEpoch bounds migration work per epoch.
	MaxMovesPerEpoch int
	// MinHeat is the minimum decayed temperature before an object is
	// considered for promotion; it keeps the long warm tail of a skewed
	// workload from thrashing the fast pool. 0 selects 2.0.
	MinHeat float64
}

// Heap is the unified heap manager bound to one host.
type Heap struct {
	h     *host.Host
	eng   *sim.Engine
	cfg   Config
	pools []*pool
	objs  map[uint64]*Obj
	next  uint64

	// Metrics.
	Allocs     sim.Counter
	Frees      sim.Counter
	Promotions sim.Counter // toward a faster class
	Demotions  sim.Counter // toward a slower class
}

// New builds a heap over the given pools (must include at least one).
// Pools must lie within regions already mapped on h.
func New(h *host.Host, cfg Config, specs ...PoolSpec) (*Heap, error) {
	if len(specs) == 0 {
		return nil, errors.New("uheap: no pools")
	}
	if cfg.Decay <= 0 || cfg.Decay >= 1 {
		cfg.Decay = 0.5
	}
	if cfg.MaxMovesPerEpoch <= 0 {
		cfg.MaxMovesPerEpoch = 8
	}
	if cfg.MinHeat <= 0 {
		cfg.MinHeat = 2
	}
	hp := &Heap{h: h, eng: h.Engine(), cfg: cfg, objs: make(map[uint64]*Obj)}
	for _, s := range specs {
		if s.Size < minBin {
			return nil, fmt.Errorf("uheap: pool %q too small", s.Name)
		}
		if r := h.AddrMap().Lookup(s.Base); r == nil || h.AddrMap().Lookup(s.Base+s.Size-1) == nil {
			return nil, fmt.Errorf("uheap: pool %q not fully mapped on host", s.Name)
		}
		hp.pools = append(hp.pools, &pool{spec: s})
	}
	sort.SliceStable(hp.pools, func(i, j int) bool {
		return hp.pools[i].spec.Class < hp.pools[j].spec.Class
	})
	if cfg.Epoch > 0 {
		var tick func()
		tick = func() {
			hp.epoch()
			// Keep ticking only while the simulation has other work:
			// when the event queue is otherwise empty the run is over,
			// and an eternal tick would keep the engine alive forever.
			if hp.eng.Pending() == 0 {
				return
			}
			hp.eng.After(cfg.Epoch, tick)
		}
		hp.eng.After(cfg.Epoch, tick)
	}
	return hp, nil
}

// Alloc places an object of size bytes, preferring the fastest pool
// with space (or the hinted class when given a valid hint).
func (hp *Heap) Alloc(size uint64, hint ...Class) (*Obj, error) {
	shift, err := binShift(size)
	if err != nil {
		return nil, err
	}
	ordered := hp.pools
	if len(hint) > 0 {
		// Hinted class first, then the normal fast-to-slow order.
		ordered = append([]*pool(nil), hp.pools...)
		sort.SliceStable(ordered, func(i, j int) bool {
			hi := ordered[i].spec.Class == hint[0]
			hj := ordered[j].spec.Class == hint[0]
			if hi != hj {
				return hi
			}
			return ordered[i].spec.Class < ordered[j].spec.Class
		})
	}
	for _, pl := range ordered {
		if addr, ok := pl.alloc(shift); ok {
			hp.next++
			o := &Obj{hp: hp, id: hp.next, size: size, shift: shift, addr: addr, pool: pl}
			hp.objs[o.id] = o
			hp.Allocs.Inc()
			return o, nil
		}
	}
	return nil, fmt.Errorf("uheap: out of memory for %d bytes", size)
}

// Free releases the object. An object the runtime is moving keeps its
// bin until the move ends: endMigration releases the bin it lands in.
func (hp *Heap) Free(o *Obj) {
	if o.freed {
		panic("uheap: double free")
	}
	o.freed = true
	if !o.migrating {
		o.pool.release(o.addr, o.shift)
	}
	delete(hp.objs, o.id)
	hp.Frees.Inc()
}

// touch records an access for the profiler.
func (o *Obj) touch() {
	if o.freed {
		panic("uheap: use after free")
	}
	o.heat++
}

// waitMigration parks the accessor while the runtime moves the object.
// An object freed meanwhile has its bin released when the move ends, so
// the woken accessor must not reach it.
func (o *Obj) waitMigration(p *sim.Proc) {
	for o.migrating {
		p.Suspend(func(wake func()) { o.waiters = append(o.waiters, wake) })
		if o.freed {
			panic("uheap: use after free")
		}
	}
}

func (o *Obj) endMigration() {
	o.migrating = false
	if o.freed {
		o.pool.release(o.addr, o.shift)
	}
	ws := o.waiters
	o.waiters = nil
	for _, w := range ws {
		w()
	}
}

// Read64P reads 8 bytes at off within the object.
func (o *Obj) Read64P(p *sim.Proc, off uint64) uint64 {
	o.bounds(off, 8)
	o.touch()
	o.waitMigration(p)
	return o.hp.h.Load64P(p, o.addr+off)
}

// Write64P writes 8 bytes at off within the object.
func (o *Obj) Write64P(p *sim.Proc, off uint64, v uint64) {
	o.bounds(off, 8)
	o.touch()
	o.waitMigration(p)
	o.hp.h.Store64P(p, o.addr+off, v)
}

func (o *Obj) bounds(off, n uint64) {
	if off+n > o.size {
		panic(fmt.Sprintf("uheap: access [%d,+%d) beyond object size %d", off, n, o.size))
	}
}

// epoch decays temperatures and migrates: the hottest objects living in
// slow pools are promoted into faster pools, evicting (demoting) colder
// residents when the fast pool is full.
func (hp *Heap) epoch() {
	var hotSlow []*Obj
	for _, o := range hp.objs {
		if !o.migrating && o.pool.spec.Class > ClassLocal && o.heat >= hp.cfg.MinHeat {
			hotSlow = append(hotSlow, o)
		}
	}
	sort.Slice(hotSlow, func(i, j int) bool {
		if hotSlow[i].heat != hotSlow[j].heat {
			return hotSlow[i].heat > hotSlow[j].heat
		}
		return hotSlow[i].id < hotSlow[j].id
	})
	moves := 0
	for _, o := range hotSlow {
		if moves >= hp.cfg.MaxMovesPerEpoch {
			break
		}
		if hp.promote(o) {
			moves++
		}
	}
	for _, o := range hp.objs {
		o.heat *= hp.cfg.Decay
		if o.heat < 0.01 {
			o.heat = 0 // fully cold: stop considering it for migration
		}
	}
}

// promote moves o to the next faster existing pool if it is hotter
// than what it would displace; returns whether a move was scheduled.
func (hp *Heap) promote(o *Obj) bool {
	target := hp.fasterPool(o.pool.spec.Class)
	if target == nil {
		return false
	}
	if addr, ok := target.alloc(o.shift); ok {
		hp.move(o, target, addr)
		return true
	}
	// Fast pool full: find a colder resident of the same bin to swap
	// out. Hysteresis (1.5x) prevents two similar-heat objects from
	// thrashing back and forth across epochs.
	victim := hp.coldestIn(target, o.shift)
	if victim == nil || o.heat < victim.heat*1.5+0.01 {
		return false
	}
	hp.swap(o, victim)
	return true
}

// fasterPool returns the slowest pool still strictly faster than c
// (the next rung on the ladder), or nil when c is already fastest.
func (hp *Heap) fasterPool(c Class) *pool {
	var best *pool
	for _, pl := range hp.pools {
		if pl.spec.Class < c && (best == nil || pl.spec.Class > best.spec.Class) {
			best = pl
		}
	}
	return best
}

func (hp *Heap) coldestIn(pl *pool, shift uint) *Obj {
	var victim *Obj
	for _, o := range hp.objs {
		if o.pool == pl && o.shift == shift && !o.migrating {
			if victim == nil || o.heat < victim.heat ||
				(o.heat == victim.heat && o.id < victim.id) {
				victim = o
			}
		}
	}
	return victim
}

// move copies the object's bytes to (target, addr) and retargets the
// handle. The copy runs as a background process using UNCACHED bulk
// transfers — migration must not consume the application's MSHRs or
// pollute its caches. Accessors are blocked for the (short) duration
// via the object's migration lock; dirty cached lines are flushed
// before the copy and stale lines of both ranges invalidated after. A
// copy that fails panics with its typed error: the runtime has no way
// yet to recover a half-moved object.
func (hp *Heap) move(o *Obj, target *pool, addr uint64) {
	from, fromShift, fromPool := o.addr, o.shift, o.pool
	if target.spec.Class < fromPool.spec.Class {
		hp.Promotions.Inc()
	} else {
		hp.Demotions.Inc()
	}
	o.migrating = true
	hp.eng.Go("uheap-migrate", func(p *sim.Proc) {
		check(hp.h.FlushRangeP(p, from, o.size))
		buf, err := hp.h.UncachedReadP(p, from, o.size)
		check(err)
		check(hp.h.UncachedWriteP(p, addr, buf))
		hp.h.InvalidateRange(addr, o.size) // drop stale lines of the bin's past life
		hp.h.InvalidateRange(from, o.size)
		o.addr = addr
		o.pool = target
		fromPool.release(from, fromShift)
		o.endMigration()
	})
}

// swap exchanges a hot slow object with a cold fast object, with the
// same uncached-copy discipline as move.
func (hp *Heap) swap(hot, cold *Obj) {
	hp.Promotions.Inc()
	hp.Demotions.Inc()
	hotAddr, coldAddr := hot.addr, cold.addr
	hotPool, coldPool := hot.pool, cold.pool
	hot.migrating = true
	cold.migrating = true
	hp.eng.Go("uheap-swap", func(p *sim.Proc) {
		check(hp.h.FlushRangeP(p, hotAddr, hot.size))
		check(hp.h.FlushRangeP(p, coldAddr, cold.size))
		hb, err := hp.h.UncachedReadP(p, hotAddr, hot.size)
		check(err)
		cb, err := hp.h.UncachedReadP(p, coldAddr, cold.size)
		check(err)
		check(hp.h.UncachedWriteP(p, hotAddr, cb))
		check(hp.h.UncachedWriteP(p, coldAddr, hb))
		hp.h.InvalidateRange(hotAddr, hot.size)
		hp.h.InvalidateRange(coldAddr, cold.size)
		hot.addr, cold.addr = coldAddr, hotAddr
		hot.pool, cold.pool = coldPool, hotPool
		hot.endMigration()
		cold.endMigration()
	})
}

// check panics with a migration copy's error.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Objects reports the live object count.
func (hp *Heap) Objects() int { return len(hp.objs) }

// RegisterStats attaches the heap's allocation/tiering counters.
func (h *Heap) RegisterStats(s *sim.Stats) {
	s.Register("allocs", &h.Allocs)
	s.Register("frees", &h.Frees)
	s.Register("promotions", &h.Promotions)
	s.Register("demotions", &h.Demotions)
	s.Gauge("live_objs", func() int64 { return int64(len(h.objs)) })
}
