// MIMO baseband on UniFabric — the paper's §5 case study.
//
// A software baseband engine sits between radios and the MAC. This
// example ports its uplink pipeline onto the UniFabric layer exactly as
// the case study prescribes: symbol frames and channel state live in
// fabric-attached memory; each computing block (FFT, channel
// estimation + equalisation, demodulation, Viterbi decoding) is an
// idempotent task executed on fabric-attached accelerators; the host
// only orchestrates.
//
// The DSP is real: bits are convolutionally encoded, QPSK-modulated,
// OFDM-transmitted through a synthetic multipath channel with AWGN, and
// recovered bit-exactly at sane SNR. The frames and the stage tasks are
// experiment E7's (exp.MIMOFrame), so this run is E7's clean run with a
// line per frame.
package main

import (
	"fmt"

	"fcc"
	"fcc/internal/dsp"
	"fcc/internal/exp"
	"fcc/internal/faa"
	"fcc/internal/sim"
	"fcc/internal/task"
)

const nFrames = 8

func main() {
	cluster, err := fcc.New(fcc.Config{
		Hosts: 1, FAMs: 1, FAMCapacity: 1 << 26, FAAs: 2,
	})
	if err != nil {
		panic(err)
	}
	runner := task.NewRunner(cluster.Eng, cluster.Hosts[0].Endpoint())
	for _, d := range cluster.FAAs {
		runner.AddEngine(faa.NewEngine(d))
	}

	rng := sim.NewRNG(2026)
	totalBits, totalErrs := 0, 0
	frameLat := sim.NewHistogram()

	cluster.Go("baseband", func(p *sim.Proc) {
		for frame := 0; frame < nFrames; frame++ {
			// Frame objects land in fabric-attached memory; three
			// idempotent tasks on the FAAs decode them; the MAC side
			// collects the decoded bits and counts errors.
			sent, got, lat := exp.MIMOFrame(p, runner, cluster.FAMs[0], uint64(frame)*0x10000, rng)
			frameLat.ObserveTime(lat)
			errs := dsp.BitErrors(sent, got)
			totalBits += len(sent)
			totalErrs += errs
			fmt.Printf("frame %d: %2d bit errors (latency %v)\n", frame, errs, lat)
		}
	})
	cluster.Run()

	fmt.Printf("\n%d frames, %d info bits, BER = %.4f at %.0f dB SNR\n",
		nFrames, totalBits, float64(totalErrs)/float64(totalBits), exp.MIMOSNRdB)
	fmt.Printf("frame pipeline latency: mean %.1fus p99 %.1fus\n",
		frameLat.Mean()/1000, frameLat.Quantile(0.99)/1000)
	for _, d := range cluster.FAAs {
		fmt.Printf("%s handled its share of stages\n", d.Name())
	}
	if totalErrs > 0 {
		fmt.Println("note: residual errors are channel noise the K=3 code could not absorb")
	}
}
