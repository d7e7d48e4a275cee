package exp

import (
	"encoding/binary"
	"math"
	"math/cmplx"

	"fcc"
	"fcc/internal/dsp"
	"fcc/internal/flit"
	"fcc/internal/mem"
	"fcc/internal/sim"
	"fcc/internal/task"
)

// The E7 pipeline parameters, shared with examples/mimo through
// MIMOFrame.
const (
	mimoSub   = 64
	mimoInfo  = 62 // 2*(62+2) coded bits = 128 = 64 QPSK symbols
	mimoFrame = mimoSub * 16
	// MIMOSNRdB is the channel's per-subcarrier signal-to-noise ratio.
	MIMOSNRdB = 18.0
)

func mimoC2B(xs []complex128) []byte {
	out := make([]byte, len(xs)*16)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[i*16:], math.Float64bits(real(x)))
		binary.LittleEndian.PutUint64(out[i*16+8:], math.Float64bits(imag(x)))
	}
	return out
}

func mimoB2C(b []byte) []complex128 {
	out := make([]complex128, len(b)/16)
	for i := range out {
		out[i] = complex(
			math.Float64frombits(binary.LittleEndian.Uint64(b[i*16:])),
			math.Float64frombits(binary.LittleEndian.Uint64(b[i*16+8:])))
	}
	return out
}

// mimoPilot is the known training symbol on every subcarrier.
func mimoPilot() []complex128 {
	p := make([]complex128, mimoSub)
	for i := range p {
		if i%2 == 0 {
			p[i] = 1
		} else {
			p[i] = -1
		}
	}
	return p
}

// MIMOFrame runs one uplink frame of the §5 case study. The radio side
// draws 62 info bits and a mild frequency-selective channel from rng,
// convolutionally encodes and QPSK-modulates the bits, OFDM-transmits
// them and a pilot through the channel with AWGN, and writes both
// received sample frames into fam at base. The three idempotent stage
// tasks (FFT, equalise/demodulate, Viterbi) then run on runner's
// engines, reading and writing fam. It returns the bits sent, the bits
// decoded and the pipeline's latency.
func MIMOFrame(p *sim.Proc, runner *task.Runner, fam *mem.FAM, base uint64, rng *sim.RNG) (sent, got []byte, lat sim.Time) {
	sent = make([]byte, mimoInfo)
	for i := range sent {
		sent[i] = byte(rng.Intn(2))
	}
	txSyms := dsp.Modulate(dsp.QPSK, dsp.ConvEncode(sent))
	h := make([]complex128, mimoSub)
	for i := range h {
		h[i] = cmplx.Rect(0.6+0.8*rng.Float64(), 2*math.Pi*rng.Float64())
	}
	tx := func(syms []complex128) []complex128 {
		t := make([]complex128, mimoSub)
		for i := range syms {
			t[i] = syms[i] * h[i]
		}
		dsp.IFFT(t)
		// The receiver's FFT sums N noise samples per subcarrier, so
		// the time-domain noise is 10*log10(N) dB quieter than the
		// per-subcarrier target.
		return dsp.AWGN(t, MIMOSNRdB+10*math.Log10(mimoSub), rng.Float64)
	}
	fam.DRAM().Store().Write(base, mimoC2B(tx(txSyms)))
	fam.DRAM().Store().Write(base+0x1000, mimoC2B(tx(mimoPilot())))

	start := p.Now()
	runner.SubmitP(p, mimoFFTTask(fam.ID(), base))
	runner.SubmitP(p, mimoEqTask(fam.ID(), base))
	runner.SubmitP(p, mimoDecodeTask(fam.ID(), base))
	lat = p.Now() - start

	got = make([]byte, mimoInfo)
	fam.DRAM().Store().Read(base+0x5000, got)
	return sent, got, lat
}

// runMIMO drives the three-stage pipeline for the given frame count.
func runMIMO(c *fcc.Cluster, runner *task.Runner, frames int) MIMOResult {
	rng := sim.NewRNG(2026)
	totalBits, totalErrs := 0, 0
	frameLat := sim.NewHistogram()
	c.Go("baseband", func(p *sim.Proc) {
		for frame := 0; frame < frames; frame++ {
			sent, got, lat := MIMOFrame(p, runner, c.FAMs[0], uint64(frame%16)*0x10000, rng)
			frameLat.ObserveTime(lat)
			totalBits += len(sent)
			totalErrs += dsp.BitErrors(sent, got)
		}
	})
	c.Run()
	return MIMOResult{
		Frames:      frames,
		BER:         float64(totalErrs) / float64(totalBits),
		MeanFrameUs: frameLat.Mean() / 1000,
		RecoveredOK: totalErrs == 0,
	}
}

// mimoFFTTask takes the time-domain frame and pilot to the frequency
// domain: two 64-point FFTs.
func mimoFFTTask(fam flit.PortID, base uint64) *task.Task {
	return &task.Task{
		Name: "fft",
		Inputs: []task.Region{
			{Port: fam, Addr: base, Size: mimoFrame},
			{Port: fam, Addr: base + 0x1000, Size: mimoFrame},
		},
		Outputs: []task.Region{
			{Port: fam, Addr: base + 0x2000, Size: mimoFrame},
			{Port: fam, Addr: base + 0x3000, Size: mimoFrame},
		},
		Body: func(c *task.Ctx) error {
			for i := 0; i < 2; i++ {
				x := mimoB2C(c.Input(i))
				dsp.FFT(x) // FFT(IFFT(x)) == x with dsp's normalization
				copy(c.Output(i), mimoC2B(x))
			}
			c.Compute(4 * sim.Microsecond)
			return nil
		},
		MaxAttempts: 50,
	}
}

// mimoEqTask estimates the channel from the pilot, zero-forces the
// frame and demodulates it to hard bits.
func mimoEqTask(fam flit.PortID, base uint64) *task.Task {
	return &task.Task{
		Name: "eq-demod",
		Inputs: []task.Region{
			{Port: fam, Addr: base + 0x2000, Size: mimoFrame},
			{Port: fam, Addr: base + 0x3000, Size: mimoFrame},
		},
		Outputs: []task.Region{{Port: fam, Addr: base + 0x4000, Size: 128}},
		Body: func(c *task.Ctx) error {
			data := mimoB2C(c.Input(0))
			rxPilot := mimoB2C(c.Input(1))
			h := dsp.EstimateChannel(rxPilot, mimoPilot())
			bits := dsp.Demodulate(dsp.QPSK, dsp.Equalize(data, h))
			copy(c.Output(0), bits)
			c.Compute(3 * sim.Microsecond)
			return nil
		},
		MaxAttempts: 50,
	}
}

// mimoDecodeTask Viterbi-decodes the hard bits back to info bits.
func mimoDecodeTask(fam flit.PortID, base uint64) *task.Task {
	return &task.Task{
		Name:    "viterbi",
		Inputs:  []task.Region{{Port: fam, Addr: base + 0x4000, Size: 128}},
		Outputs: []task.Region{{Port: fam, Addr: base + 0x5000, Size: mimoInfo}},
		Body: func(c *task.Ctx) error {
			copy(c.Output(0), dsp.ViterbiDecode(c.Input(0)))
			c.Compute(5 * sim.Microsecond)
			return nil
		},
		MaxAttempts: 50,
	}
}
