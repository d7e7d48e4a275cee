// Package link implements the Flex Bus link layer (§2.1): reliable
// flit transmission between two endpoints with hop-by-hop credit-based
// flow control (CFC), per-virtual-channel receive buffers, a credit
// update protocol, CRC-triggered retransmission, and round-robin
// (credit-agnostic) VC arbitration.
//
// The CFC design deliberately exposes the three pathologies the paper
// calls out under Difference #3 — credit allocation, credit-agnostic
// scheduling, and credit-starvation backpropagation: the transmitter
// takes VCs in turn whatever their credit balance, and configuration
// knobs (SharedCreditPool, dynamic SetRxBuf) let the cfcpolicy and
// arbiter packages study and fix the rest.
package link

import (
	"fmt"

	"fcc/internal/flit"
	"fcc/internal/phys"
	"fcc/internal/sim"
)

// MaxPacketPayload is the largest payload one packet may carry over a
// link. Larger transfers are segmented by the transaction layer, exactly
// as PCIe segments bulk writes into Max-Payload-Size TLPs. Keeping
// packets small bounds per-VC receive-buffer requirements.
const MaxPacketPayload = 512

// Config describes one bidirectional link.
type Config struct {
	// Phys is the physical layer (rate, lanes, propagation, BER).
	Phys phys.LinkConfig
	// Mode selects the flit format (68B or 256B).
	Mode flit.Mode
	// RxBufFlits is the receive buffer capacity, in flits, per virtual
	// channel — this is also the number of credits advertised to the
	// transmitter. Each entry must hold at least one max-size packet.
	RxBufFlits [flit.NumChannels]int
	// SharedCreditPool, when true, replaces per-VC buffers with a single
	// pool of sum(RxBufFlits) credits shared by all VCs. This models the
	// naive allocation the paper critiques: bulk traffic can consume
	// every credit and starve latency-sensitive channels. Shared mode
	// implies packet-granular VC arbitration (see PacketArbitration).
	SharedCreditPool bool
	// PacketArbitration, when true, locks the transmitter to one VC for
	// the duration of a packet instead of interleaving flits of
	// different VCs. Real CXL interleaves; older PCIe-style designs do
	// not. Validate normalizes this to true when SharedCreditPool is
	// set (interleaving partial packets from several VCs into one
	// shared pool can deadlock), so after validation the stored config
	// always reflects the mode the link actually runs in.
	PacketArbitration bool
	// CreditReturnDelay is the receiver-side processing delay before a
	// freed buffer slot is reflected in a credit update to the sender
	// (the update itself then takes one propagation delay).
	CreditReturnDelay sim.Time
	// RetryEnabled turns on CRC checking and link-level retransmission.
	// With a zero BER it only adds bookkeeping.
	RetryEnabled bool
	// Seed drives error injection.
	Seed uint64
}

// DefaultConfig returns a working Gen5 x8 link with 32 flits of buffer
// per VC.
func DefaultConfig() Config {
	c := Config{
		Phys:              phys.Gen5x8,
		Mode:              flit.Mode68,
		CreditReturnDelay: 5 * sim.Nanosecond,
	}
	for i := range c.RxBufFlits {
		c.RxBufFlits[i] = 32
	}
	return c
}

// Validate checks the configuration, including the no-deadlock condition
// that every VC buffer can hold a full max-size packet, and normalizes
// coupled settings (SharedCreditPool forces PacketArbitration) so the
// validated value is exactly what the link will run with.
func (c *Config) Validate() error {
	if err := c.Phys.Validate(); err != nil {
		return err
	}
	if c.Phys.BER > 0 && !c.RetryEnabled {
		return fmt.Errorf("link: BER %v requires RetryEnabled", c.Phys.BER)
	}
	if c.SharedCreditPool {
		c.PacketArbitration = true
	}
	maxFlits := c.Mode.FlitsFor(MaxPacketPayload)
	if c.SharedCreditPool {
		total := 0
		for _, n := range c.RxBufFlits {
			total += n
		}
		if total < maxFlits {
			return fmt.Errorf("link: shared pool %d flits cannot hold a max packet (%d flits)", total, maxFlits)
		}
		return nil
	}
	for ch, n := range c.RxBufFlits {
		if n < maxFlits {
			return fmt.Errorf("link: VC %v buffer %d flits cannot hold a max packet (%d flits)",
				flit.Channel(ch), n, maxFlits)
		}
	}
	return nil
}

// Sink consumes packets delivered by a port. release must be called
// exactly once, when the consumer has drained the packet from the
// receive buffer; it returns the packet's credits to the sender.
type Sink interface {
	Arrive(pkt *flit.Packet, release func())
}

// TrainSink consumes a port's received packets as flit trains instead
// of decoded packets: a switch port, which routes by the header view and
// forwards the train with Port.Forward. The port has checked every
// flit's CRC and the header's bounds. The train stays in the receive
// buffer, owned by the port, until release is called exactly once;
// release returns its credits and its flits, so the sink must not touch
// the train afterwards.
type TrainSink interface {
	ArriveTrain(hdr flit.Header, train []*flit.Flit, release func())
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(pkt *flit.Packet, release func())

// Arrive implements Sink.
func (f SinkFunc) Arrive(pkt *flit.Packet, release func()) { f(pkt, release) }
