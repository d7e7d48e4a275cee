package workload

import (
	"errors"
	"fmt"

	"fcc/internal/fabstore"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// Mix is one operation blend. Percentages must sum to 100.
type Mix struct {
	Name     string
	GetPct   int
	PutPct   int
	ScanPct  int
	ScanRows uint64 // rows per scan
}

// Validate checks the blend.
func (m Mix) Validate() error {
	if m.GetPct+m.PutPct+m.ScanPct != 100 {
		return fmt.Errorf("workload: mix %q percentages sum to %d, want 100",
			m.Name, m.GetPct+m.PutPct+m.ScanPct)
	}
	if m.ScanPct > 0 && m.ScanRows == 0 {
		return fmt.Errorf("workload: mix %q scans 0 rows", m.Name)
	}
	return nil
}

// Config shapes one driver (one per store client). The generator is
// open-loop: arrivals are a Poisson process at Rate regardless of how
// fast the store completes them, which is how a front-end fed by
// millions of independent users behaves — raise Rate to model more of
// them. MaxOutstanding bounds simulator memory: arrivals beyond it are
// shed (counted, never silently dropped).
type Config struct {
	Seed     uint64
	Arrivals int     // total arrivals to generate
	Warmup   int     // arrivals excluded from latency recording
	Rate     float64 // mean arrivals per simulated second
	// MaxOutstanding caps in-flight operations (default 64).
	MaxOutstanding int
	// TenantSkew / KeySkew are the Zipf exponents (0 = uniform).
	TenantSkew float64
	KeySkew    float64
	Mix        Mix
}

// Driver feeds one store client. All state is touched only on the
// client's host engine, so sharded runs stay deterministic.
type Driver struct {
	c   *fabstore.Client
	cfg Config
	pat *Pattern  // key sampler (shared seeded helper)
	tz  *sim.Zipf // tenant sampler

	outstanding int

	// The accounting identity (audited E9-style): Issued == Committed +
	// TypedErrors + CrashLost, with Shed counted before issue. Any other
	// outcome shows up as a nonzero Unaccounted.
	Issued      sim.Counter
	Committed   sim.Counter
	TypedErrors sim.Counter
	CrashLost   sim.Counter
	Shed        sim.Counter

	// Lat is end-to-end committed-transaction latency past warmup.
	Lat *sim.Histogram
}

// NewDriver builds a driver for c. The tenant and key Zipf samplers
// fork from one seed, so a driver's whole arrival stream is a function
// of (Seed, client) alone.
func NewDriver(c *fabstore.Client, cfg Config) (*Driver, error) {
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}
	if cfg.Arrivals <= 0 || cfg.Rate <= 0 {
		return nil, errors.New("workload: need positive Arrivals and Rate")
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 64
	}
	scfg := c.Store().Config()
	pat := NewPattern(cfg.Seed, int(scfg.KeysPerTenant), cfg.KeySkew, 0)
	tz := sim.NewZipf(pat.RNG.Fork(1), scfg.Tenants, cfg.TenantSkew)
	return &Driver{c: c, cfg: cfg, pat: pat, tz: tz, Lat: sim.NewHistogram()}, nil
}

// Start spawns the arrival process on the client's host engine.
func (d *Driver) Start() {
	h := d.c.Host()
	eng := h.Engine()
	eng.Go(h.Name()+"/wl", func(p *sim.Proc) {
		scfg := d.c.Store().Config()
		for i := 0; i < d.cfg.Arrivals; i++ {
			// Open-loop: the think time is drawn before admission so the
			// arrival clock never depends on completions.
			gap := sim.Time(d.pat.RNG.Exp() * float64(sim.Second) / d.cfg.Rate)
			p.Sleep(gap)
			tenant := d.tz.Next()
			key, _ := d.pat.Next()
			roll := d.pat.RNG.Intn(100)
			if d.c.Crashed() {
				break
			}
			if d.outstanding >= d.cfg.MaxOutstanding {
				d.Shed.Inc()
				continue
			}
			d.outstanding++
			d.Issued.Inc()
			record := i >= d.cfg.Warmup
			arrival := i
			eng.Go(h.Name()+"/op", func(op *sim.Proc) {
				start := op.Now()
				var err error
				switch {
				case roll < d.cfg.Mix.GetPct:
					_, err = d.c.GetP(op, tenant, uint64(key))
				case roll < d.cfg.Mix.GetPct+d.cfg.Mix.PutPct:
					val := make([]byte, scfg.SlotSize)
					fabstore.FillValue(val, tenant, uint64(key), uint64(arrival))
					err = d.c.PutP(op, tenant, uint64(key), val)
				default:
					startKey := uint64(key)
					if limit := scfg.KeysPerTenant; startKey+d.cfg.Mix.ScanRows > limit {
						startKey = limit - d.cfg.Mix.ScanRows
					}
					_, err = d.c.ScanP(op, tenant, startKey, d.cfg.Mix.ScanRows)
				}
				d.outstanding--
				switch {
				case err == nil:
					d.Committed.Inc()
					if record {
						d.Lat.ObserveTime(op.Now() - start)
					}
				case errors.Is(err, fabstore.ErrCrashed):
					d.CrashLost.Inc()
				case txn.Typed(err):
					d.TypedErrors.Inc()
				default:
					// Deliberately uncounted: surfaces as Unaccounted != 0.
				}
			})
		}
	})
}

// Unaccounted is the audit residue: operations that neither committed
// nor failed typed nor were lost to a crash. It must be zero.
func (d *Driver) Unaccounted() int64 {
	return d.Issued.Value() - d.Committed.Value() - d.TypedErrors.Value() - d.CrashLost.Value()
}

// RegisterStats exports the driver's accounting and latency tail.
func (d *Driver) RegisterStats(st *sim.Stats) {
	st.Register("issued", &d.Issued)
	st.Register("committed", &d.Committed)
	st.Register("typed_errors", &d.TypedErrors)
	st.Register("crash_lost", &d.CrashLost)
	st.Register("shed", &d.Shed)
	st.Gauge("unaccounted", d.Unaccounted)
	st.RegisterHistogram("lat_ns", d.Lat)
}
