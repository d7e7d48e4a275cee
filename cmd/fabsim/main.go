// fabsim runs a parameterized fabric traffic scenario and reports
// latency/throughput/fairness — a scratchpad for exploring the
// simulator outside the canned experiments.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"fcc"
	"fcc/internal/exp"
	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
)

// checkFlags rejects the flag values the scenario cannot run: it needs a
// host and a FAM, a payload one packet carries, and at least one request
// per host and in flight.
func checkFlags(hosts, fams, size, window, ops int) error {
	switch {
	case hosts < 1:
		return errors.New("-hosts must be at least 1")
	case fams < 1:
		return errors.New("-fams must be at least 1")
	case size < 1 || size > link.MaxPacketPayload:
		return fmt.Errorf("-size must be 1..%d bytes, got %d", link.MaxPacketPayload, size)
	case window < 1:
		return errors.New("-window must be at least 1")
	case ops < 1:
		return errors.New("-ops must be at least 1")
	}
	return nil
}

func main() {
	hosts := flag.Int("hosts", 4, "number of hosts issuing traffic")
	fams := flag.Int("fams", 1, "number of FAM chassis")
	size := flag.Int("size", 64, "request payload bytes (1..512)")
	window := flag.Int("window", 8, "outstanding requests per host")
	reads := flag.Bool("reads", true, "issue reads (false: writes)")
	ops := flag.Int("ops", 2000, "requests per host")
	flag.Parse()
	if err := checkFlags(*hosts, *fams, *size, *window, *ops); err != nil {
		fmt.Fprintln(os.Stderr, "fabsim:", err)
		os.Exit(2)
	}

	c, err := fcc.New(fcc.Config{
		Hosts: *hosts, FAMs: *fams, FAMCapacity: 1 << 30,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fabsim:", err)
		os.Exit(1)
	}
	lat := sim.NewHistogram()
	done := 0
	for hi, h := range c.Hosts {
		ep := h.Endpoint()
		famID := c.FAMs[hi%len(c.FAMs)].ID()
		exp.ClosedLoop(c.Eng, *window, *ops, func(i int, next func()) {
			start := c.Eng.Now()
			pkt := &flit.Packet{Chan: flit.ChIO, Dst: famID, Addr: uint64(i) * 64}
			if *reads {
				pkt.Op = flit.OpIORd
				pkt.ReqLen = uint32(*size)
			} else {
				pkt.Op = flit.OpIOWr
				pkt.Size = uint32(*size)
			}
			ep.Request(pkt).OnComplete(func(*flit.Packet, error) {
				lat.ObserveTime(c.Eng.Now() - start)
				done++
				next()
			})
		})
	}
	c.Run()

	elapsed := c.Eng.Now().Seconds()
	fmt.Printf("scenario: %d hosts x %d x %dB %s, window %d, %d FAMs\n",
		*hosts, *ops, *size, map[bool]string{true: "reads", false: "writes"}[*reads], *window, *fams)
	fmt.Printf("completed:  %d ops in %v\n", done, c.Eng.Now())
	fmt.Printf("throughput: %.2f Mops/s, %.2f GB/s\n",
		float64(done)/elapsed/1e6, float64(done)*float64(*size)/elapsed/1e9)
	fmt.Printf("latency:    mean %.0fns  p50 %.0fns  p99 %.0fns  max %.0fns\n",
		lat.Mean(), lat.Quantile(0.5), lat.Quantile(0.99), lat.Max())
	fmt.Printf("events:     %d\n", c.Eng.Events())
}
