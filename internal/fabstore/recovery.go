package fabstore

import (
	"fmt"

	"fcc/internal/flit"
	"fcc/internal/host"
	"fcc/internal/sim"
	"fcc/internal/task"
)

// Recovery replays a crashed host's write-ahead intents. Any surviving
// host can run it: it sweeps the dead host's WAL slots on every shard,
// and each pending record becomes one idempotent task — input is the
// intent record in fabric memory, outputs are the row and the intent's
// state word. The task runtime snapshots the record once and re-executes
// on failure, so a replay that races a partial original write (or a
// crashed earlier replay) still lands exactly the intended bytes.
type Recovery struct {
	s *Store
	h *host.Host
	r *task.Runner

	Scanned  sim.Counter // WAL slots inspected
	Replayed sim.Counter // pending intents re-applied
}

// Replay describes one recovered transaction.
type Replay struct {
	Tenant int
	Key    uint64
	Seq    uint64
}

// NewRecovery builds a recovery driver on surviving host h with a local
// task execution engine (seeded for deterministic retry behavior).
func NewRecovery(s *Store, h *host.Host, seed uint64) *Recovery {
	r := task.NewRunner(h.Engine(), h.Endpoint())
	r.AddEngine(task.NewLocalEngine(h.Engine(), h.Name()+"/recovery", seed))
	return &Recovery{s: s, h: h, r: r}
}

// RecoverP sweeps crashed's intent slots across all shards and replays
// every pending record, returning what was replayed in deterministic
// (shard, slot) order.
func (rec *Recovery) RecoverP(p *sim.Proc, crashed int) ([]Replay, error) {
	s := rec.s
	var out []Replay
	for si := range s.shards {
		sh := &s.shards[si]
		for slot := 0; slot < s.cfg.IntentSlots; slot++ {
			rec.Scanned.Inc()
			iaddr := s.intentAddr(sh, crashed, slot)
			resp, err := rec.h.Endpoint().RequestP(p, &flit.Packet{
				Chan: flit.ChIO, Op: flit.OpIORd, Dst: sh.Dev.Port,
				Addr: iaddr, ReqLen: uint32(s.recSize),
			}, s.cfg.RetryAttempts, s.cfg.RetryBackoff)
			if err != nil {
				return out, fmt.Errorf("scan shard %d slot %d: %w", si, slot, err)
			}
			if le64(resp.Data[0:8]) != 1 {
				continue // free slot
			}
			tenant := int(le64(resp.Data[8:16]))
			key := le64(resp.Data[16:24])
			seq := le64(resp.Data[24:32])
			_, rowPort, rowAddr := s.rowAddr(s.Row(tenant, key))
			t := &task.Task{
				Name: fmt.Sprintf("replay-h%d-s%d-%d", crashed, si, slot),
				Inputs: []task.Region{
					{Port: sh.Dev.Port, Addr: iaddr, Size: s.recSize},
				},
				Outputs: []task.Region{
					{Port: rowPort, Addr: rowAddr, Size: s.cfg.SlotSize},
					{Port: sh.Dev.Port, Addr: iaddr, Size: 8},
				},
				Body: func(ctx *task.Ctx) error {
					in := ctx.Input(0)
					copy(ctx.Output(0), in[intentHeader:intentHeader+int(s.cfg.SlotSize)])
					clear8(ctx.Output(1))
					return nil
				},
			}
			if _, err := rec.r.Submit(t).Await(p); err != nil {
				return out, fmt.Errorf("replay shard %d slot %d: %w", si, slot, err)
			}
			rec.Replayed.Inc()
			out = append(out, Replay{Tenant: tenant, Key: key, Seq: seq})
		}
	}
	return out, nil
}

func clear8(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
