// fabtop builds a composable-infrastructure topology and renders it —
// the Figure 1b regeneration as a standalone tool. With -trace, it also
// runs one remote read through the fabric with the flit tracer attached
// and prints the packet's hop-by-hop path (port, event, VC, seq, credit
// state, timestamps).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"fcc"
	"fcc/internal/sim"
	"fcc/internal/telemetry"
)

// checkFlags rejects the flag values fabtop cannot run: a cluster needs
// a host, and the traced read needs a FAM to read from.
func checkFlags(hosts, fams int, trace bool) error {
	switch {
	case hosts < 1:
		return errors.New("-hosts must be at least 1")
	case trace && fams < 1:
		return errors.New("-trace reads from a FAM: -fams must be at least 1")
	}
	return nil
}

func main() {
	hosts := flag.Int("hosts", 2, "host servers")
	fams := flag.Int("fams", 2, "fabric-attached memory chassis")
	faas := flag.Int("faas", 1, "fabric-attached accelerator chassis")
	switches := flag.Int("switches", 2, "fabric switches (line topology)")
	agents := flag.Bool("agents", true, "migration agent per FAM")
	arb := flag.Bool("arbiter", true, "central fabric arbiter")
	trace := flag.Bool("trace", false, "run one remote read and print its hop-by-hop flit trace")
	flag.Parse()
	if err := checkFlags(*hosts, *fams, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "fabtop:", err)
		os.Exit(2)
	}

	cfg := fcc.Config{
		Hosts: *hosts, FAMs: *fams, FAAs: *faas, FAMCapacity: 1 << 30,
		Switches: *switches, Agents: *agents, Arbiter: *arb,
	}
	if *trace {
		cfg.TraceFlits = 4096
	}
	c, err := fcc.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fabtop:", err)
		os.Exit(1)
	}
	fmt.Print(c.Render())
	fmt.Println("\nFlex Bus layering (Figure 1a):")
	fmt.Println("  transaction layer: CXL.io / CXL.mem / CXL.cache (+ ctrl lane)")
	fmt.Println("  link layer:        credit-based flow control, reliability/replay")
	fmt.Println("  physical layer:    (de)serialization, framing, x4/x8/x16 @ up to 64 GT/s")

	if !*trace {
		return
	}
	// One remote read from host0 to the last FAM (the longest path in
	// the line topology), traced at every port it crosses.
	h := c.Hosts[0]
	target := c.FAMBase(*fams - 1)
	c.Go("trace-read", func(p *sim.Proc) { h.Load64P(p, target) })
	c.Run()

	src, tag, ok := c.Tracer.FirstPacket()
	if !ok {
		fmt.Println("\nno packets traced")
		return
	}
	fmt.Printf("\nflit trace (%d events recorded fabric-wide):\n", c.Tracer.Total())
	fmt.Print(telemetry.RenderPath(c.Tracer.PacketPath(src, tag)))
}
