// Package flit defines the wire-level vocabulary of the simulated memory
// fabric: transaction packets, their opcodes and channels (CXL.io,
// CXL.mem, CXL.cache, plus the dedicated control lane that FCC's central
// arbiter uses), and the 68-byte / 256-byte flit encodings that carry
// them, including CRC protection. Encoding is real — packets round-trip
// through bytes — so the physical/link layers charge serialization time
// for exactly the bits a real fabric would move.
package flit

import "fmt"

// Channel identifies the protocol channel (virtual channel class) a
// packet travels on. CXL multiplexes three protocols over one Flex Bus
// link; FCC adds a dedicated in-band control lane (§4, Principle #4).
type Channel uint8

const (
	// ChIO is CXL.io: PCIe-style configuration and bulk, non-coherent
	// reads/writes.
	ChIO Channel = iota
	// ChMem is CXL.mem: host load/store access to device memory.
	ChMem
	// ChCache is CXL.cache: device-initiated coherent access and host
	// snoop traffic.
	ChCache
	// ChCtrl is the dedicated control lane used by the central fabric
	// arbiter for credit query/reserve/reclaim and telemetry.
	ChCtrl

	// NumChannels is the number of distinct channels.
	NumChannels = 4
)

// String returns the conventional channel name.
func (c Channel) String() string {
	switch c {
	case ChIO:
		return "CXL.io"
	case ChMem:
		return "CXL.mem"
	case ChCache:
		return "CXL.cache"
	case ChCtrl:
		return "ctrl"
	default:
		return fmt.Sprintf("Channel(%d)", uint8(c))
	}
}

// Op is a transaction opcode.
type Op uint8

// Transaction opcodes. Requests and their responses are paired; the
// transaction layer matches them by (Src, Tag).
const (
	OpInvalid Op = iota

	// CXL.mem
	OpMemRd      // read request
	OpMemRdData  // read response carrying data
	OpMemWr      // write request carrying data
	OpMemWrAck   // write completion
	OpMemAtomic  // fetch-add style atomic (request carries operand)
	OpMemAtomicR // atomic response carrying prior value
	OpMemErr     // poison/error response (e.g. partition violation)

	// CXL.cache (host/device coherence)
	OpSnpInv     // snoop-invalidate a cacheline
	OpSnpData    // snoop requesting data (downgrade to shared)
	OpSnpResp    // snoop response (may carry data)
	OpCacheRd    // coherent read, shared grant
	OpCacheRdOwn // coherent read-for-ownership (invalidates other copies)
	OpCacheWB    // writeback / eviction notice of an owned line
	OpCacheResp  // completion for coherent ops (grant in ReqLen)

	// CXL.io
	OpIORd   // non-coherent bulk read
	OpIOData // bulk read response
	OpIOWr   // non-coherent bulk write (posted)
	OpIOAck  // bulk write ack
	OpCfgRd  // configuration read (discovery, fabric management)
	OpCfgWr  // configuration write
	OpCfgRsp // configuration response

	// Control lane (central arbiter, Principle #4)
	OpCtrlCreditQuery   // query available credits along a path
	OpCtrlCreditReserve // reserve bandwidth credits
	OpCtrlCreditReclaim // return reserved credits
	OpCtrlGrant         // arbiter decision
	OpCtrlTelemetry     // switch -> arbiter congestion report
	OpETrans            // elastic transaction descriptor -> migration agent
	OpETransDone        // elastic transaction completion (per ownership)
	OpTaskRun           // idempotent task dispatch -> execution engine
	OpTaskDone          // idempotent task completion
	OpFAAInvoke         // message to a hardware cooperative scalable function
	OpFAAReply          // scalable function reply

	numOps
)

var opNames = map[Op]string{
	OpMemRd: "MemRd", OpMemRdData: "MemRdData", OpMemWr: "MemWr",
	OpMemWrAck: "MemWrAck", OpMemAtomic: "MemAtomic", OpMemAtomicR: "MemAtomicR",
	OpMemErr: "MemErr",
	OpSnpInv: "SnpInv", OpSnpData: "SnpData", OpSnpResp: "SnpResp",
	OpCacheRd: "CacheRd", OpCacheRdOwn: "CacheRdOwn", OpCacheWB: "CacheWB",
	OpCacheResp: "CacheResp",
	OpIORd:      "IORd", OpIOData: "IOData", OpIOWr: "IOWr", OpIOAck: "IOAck",
	OpCfgRd: "CfgRd", OpCfgWr: "CfgWr", OpCfgRsp: "CfgRsp",
	OpCtrlCreditQuery: "CreditQuery", OpCtrlCreditReserve: "CreditReserve",
	OpCtrlCreditReclaim: "CreditReclaim", OpCtrlGrant: "Grant",
	OpCtrlTelemetry: "Telemetry",
	OpETrans:        "ETrans", OpETransDone: "ETransDone",
	OpTaskRun: "TaskRun", OpTaskDone: "TaskDone",
	OpFAAInvoke: "FAAInvoke", OpFAAReply: "FAAReply",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsRequest reports whether the opcode initiates a transaction (expects a
// response), as opposed to completing one.
func (o Op) IsRequest() bool {
	switch o {
	case OpMemRd, OpMemWr, OpMemAtomic, OpSnpInv, OpSnpData, OpCacheRd,
		OpCacheRdOwn, OpCacheWB, OpIORd, OpIOWr, OpCfgRd, OpCfgWr,
		OpCtrlCreditQuery, OpCtrlCreditReserve, OpCtrlCreditReclaim,
		OpETrans, OpTaskRun, OpFAAInvoke:
		return true
	}
	return false
}

// Channel reports the protocol channel an opcode belongs to.
func (o Op) Channel() Channel {
	switch o {
	case OpMemRd, OpMemRdData, OpMemWr, OpMemWrAck, OpMemAtomic, OpMemAtomicR, OpMemErr:
		return ChMem
	case OpSnpInv, OpSnpData, OpSnpResp, OpCacheRd, OpCacheRdOwn, OpCacheWB, OpCacheResp:
		return ChCache
	case OpIORd, OpIOData, OpIOWr, OpIOAck, OpCfgRd, OpCfgWr, OpCfgRsp:
		return ChIO
	default:
		return ChCtrl
	}
}

// PortID is a fabric-routable endpoint address. CXL PBR uses 12-bit IDs,
// addressing up to 4096 edge ports per domain (§2.1); we enforce the same
// bound.
type PortID uint16

// MaxPortID is the largest valid PBR port ID (12 bits).
const MaxPortID PortID = 0xFFF

// Packet is one fabric transaction: a request or response travelling on a
// channel from Src to Dst. Size is the logical payload size in bytes;
// Data optionally carries real payload bytes (models that only need
// timing leave it nil and the codec synthesizes zeros).
type Packet struct {
	Chan Channel
	Op   Op
	Src  PortID
	Dst  PortID
	Tag  uint16 // transaction tag, unique per (Src, outstanding op)
	Addr uint64 // target fabric address
	Size uint32 // payload bytes (0 for dataless ops)
	Data []byte // optional payload; len(Data) == Size when present

	// ReqLen is the number of bytes a read-style request asks for (the
	// request itself carries no payload; the response does). 24 bits on
	// the wire.
	ReqLen uint32

	// Hops counts switch traversals, filled in by the fabric for
	// diagnostics and adaptive routing decisions.
	Hops uint8
}

// Header is the fixed-size view of a packet header that a switch routes
// by: the packet's fields less Addr, ReqLen and Data. Pool.PeekHeader
// reads it in place from a received train's header flit, so a switch
// holds one per train by value and allocates nothing.
type Header struct {
	Chan Channel
	Op   Op
	Src  PortID
	Dst  PortID
	Tag  uint16
	Size uint32
	Hops uint8
}

// String renders a compact description for traces.
func (h Header) String() string {
	return fmt.Sprintf("%s %s %d->%d tag=%d size=%d", h.Chan, h.Op, h.Src, h.Dst, h.Tag, h.Size)
}

// Header returns the packet's routing fields.
func (p *Packet) Header() Header {
	return Header{Chan: p.Chan, Op: p.Op, Src: p.Src, Dst: p.Dst, Tag: p.Tag, Size: p.Size, Hops: p.Hops}
}

// String renders a compact description for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %s %d->%d tag=%d addr=%#x size=%d",
		p.Chan, p.Op, p.Src, p.Dst, p.Tag, p.Addr, p.Size)
}

// Response turns the request into its response in place and returns
// it: opcode op on op's channel, Src and Dst swapped, the same Tag and
// Addr, Size respSize, and ReqLen, Hops and Data zero. The request is
// gone once Response returns, so a handler reads what it needs of it
// first. A handler's request is its own to overwrite: the link decoded
// it for this one delivery (Pool.Decode), and nothing else holds it.
func (p *Packet) Response(op Op, respSize uint32) *Packet {
	*p = Packet{Chan: op.Channel(), Op: op, Src: p.Dst, Dst: p.Src, Tag: p.Tag, Addr: p.Addr, Size: respSize}
	return p
}
