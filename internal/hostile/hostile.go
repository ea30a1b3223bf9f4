// Package hostile is a library of deterministic endpoint-misbehavior
// profiles for the simulated measurement campaign. Real scans hit live but
// broken QUIC deployments — non-conformant stacks, greased and flapping
// spin bits, stalled handshakes, floods — which is why RFC 9000 makes the
// spin bit optional and RFC 9312 warns on-path observers about
// manipulation. A profile attaches to a websim server and misbehaves at
// the wire (via a netem datagram mangler) or at the site (via a crafted
// response stream); the scanner's job is to classify every profile into a
// stable "hostile: <name>" error class instead of crashing or hanging.
//
// Everything here is a pure function of (seed, address) or of the bytes a
// profile emits, so hostile worlds remain byte-identical across worker
// counts and engines, like everything else in the campaign.
package hostile

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"quicspin/internal/core"
	"quicspin/internal/h3"
	"quicspin/internal/transport"
	"quicspin/internal/wire"
)

// Profile identifies one endpoint-misbehavior profile. One byte: a
// scanner.ConnResult carries the profile of its hostile failure.
type Profile uint8

const (
	// None marks a well-behaved server.
	None Profile = iota
	// MalformedHeader truncates every 1-RTT short-header datagram so the
	// client cannot parse past the first byte.
	MalformedHeader
	// MalformedFrames corrupts the first frame type of every short packet
	// into an unknown frame.
	MalformedFrames
	// SpinFlap flips the spin bit on every packet (parity of the packet
	// number), defeating RTT measurement with impossible sub-burst edges.
	SpinFlap
	// SpinLiar spins the bit at a constant fake rate (half the packet
	// rate) unrelated to the path RTT.
	SpinLiar
	// Slowloris keeps the handshake alive forever without completing it:
	// the client sees parseable traffic but never a server hello.
	Slowloris
	// OversizedBody declares a response body far beyond any honest size.
	OversizedBody
	// HeaderFlood streams response headers without ever terminating them.
	HeaderFlood
	// QlogGarbage answers the request with qlog-like NDJSON garbage
	// instead of an HTTP/3-lite response.
	QlogGarbage
	// PacketStorm amplifies the handshake flight into a storm of
	// duplicate datagrams.
	PacketStorm
	// MidstreamReset closes the connection abruptly halfway through the
	// response.
	MidstreamReset

	// NumProfiles is the number of profiles, None included: an array
	// indexed by Profile has this length.
	NumProfiles
)

// Profiles returns all misbehavior profiles (excluding None) in stable
// order.
func Profiles() []Profile {
	out := make([]Profile, 0, NumProfiles-1)
	for p := MalformedHeader; p < NumProfiles; p++ {
		out = append(out, p)
	}
	return out
}

// String returns the stable profile name used in error classes, telemetry
// labels and tables.
func (p Profile) String() string {
	switch p {
	case None:
		return "none"
	case MalformedHeader:
		return "malformed-header"
	case MalformedFrames:
		return "malformed-frames"
	case SpinFlap:
		return "spin-flap"
	case SpinLiar:
		return "spin-liar"
	case Slowloris:
		return "slowloris"
	case OversizedBody:
		return "oversized-body"
	case HeaderFlood:
		return "header-flood"
	case QlogGarbage:
		return "qlog-garbage"
	case PacketStorm:
		return "packet-storm"
	case MidstreamReset:
		return "midstream-reset"
	default:
		return "unknown"
	}
}

func (p Profile) description() string {
	switch p {
	case MalformedHeader:
		return "unparseable short-header packets"
	case MalformedFrames:
		return "packets with malformed frames"
	case SpinFlap:
		return "spin bit flipped on every packet"
	case SpinLiar:
		return "spin bit spun at a fake constant rate"
	case Slowloris:
		return "handshake never completes despite live traffic"
	case OversizedBody:
		return "response declares an oversized body"
	case HeaderFlood:
		return "response headers flood without terminator"
	case QlogGarbage:
		return "qlog-like garbage instead of a response"
	case PacketStorm:
		return "amplified duplicate packet storm"
	case MidstreamReset:
		return "connection reset mid-response"
	default:
		return "misbehaving endpoint"
	}
}

// errPrefix starts every hostile error class; resilience.Classify keys on
// it.
const errPrefix = "hostile: "

// ErrText returns the canonical error string recorded for a connection
// classified under profile p: "hostile: <name>: <description>".
func ErrText(p Profile) string {
	return errPrefix + p.String() + ": " + p.description()
}

// ProfileOf parses the profile out of a hostile error string produced by
// ErrText or BudgetErrText. Any other string maps to None.
func ProfileOf(err string) Profile {
	if !strings.HasPrefix(err, errPrefix) {
		return None
	}
	rest := err[len(errPrefix):]
	name, _, _ := strings.Cut(rest, ":")
	for p := MalformedHeader; p < NumProfiles; p++ {
		if p.String() == name {
			return p
		}
	}
	return None
}

// budgetProfile maps a transport budget kind to the misbehavior profile
// whose signature it is.
func budgetProfile(kind string) Profile {
	switch kind {
	case transport.BudgetRecvBytes, transport.BudgetRecvPackets:
		return PacketStorm
	case transport.BudgetMalformedDatagram:
		return MalformedHeader
	case transport.BudgetMalformedFrame:
		return MalformedFrames
	default:
		return None
	}
}

// BudgetErrText returns the canonical error string for a connection that
// tripped a per-connection resource budget of the given kind.
func BudgetErrText(kind string) string {
	p := budgetProfile(kind)
	if p == None {
		return errPrefix + "budget: exceeded (" + kind + ")"
	}
	return errPrefix + p.String() + ": budget exceeded (" + kind + ")"
}

// fnv64a hashes s with 64-bit FNV-1a and finalizes with a murmur3-style
// bit mixer. Raw FNV-1a diffuses trailing-byte differences poorly into the
// low bits, and Assign reduces the hash with small moduli — over the
// sequential addresses websim allocates, that skews both the hostile share
// and the profile distribution without the finalizer.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Assign deterministically maps a server address to its misbehavior
// profile: a frac share of addresses (hash-uniform) gets one of the
// profiles, the rest None. It draws nothing from any random stream, so
// frac = 0 worlds are byte-identical to worlds built before hostile
// profiles existed.
func Assign(seed int64, addr string, frac float64) Profile {
	if frac <= 0 {
		return None
	}
	h := fnv64a(fmt.Sprintf("hostile|%d|%s", seed, addr))
	if float64(h%1_000_000)/1_000_000 >= frac {
		return None
	}
	h2 := fnv64a(fmt.Sprintf("hostile-profile|%d|%s", seed, addr))
	return MalformedHeader + Profile(h2%uint64(NumProfiles-1))
}

// StormCopies is the amplification factor of the PacketStorm profile: the
// first server datagram (the handshake flight) is duplicated this many
// times, enough to trip any sane per-connection packet budget.
const StormCopies = 1200

// mangledDCIDLen is the connection-ID length manglers assume when locating
// fields in short headers (the scanner's transport always issues
// DefaultConnIDLen-byte CIDs).
const mangledDCIDLen = transport.DefaultConnIDLen

// NewMangler returns a datagram-rewriting function implementing profile p
// on the server→client path, or nil when the profile misbehaves at the
// site layer instead of the wire (OversizedBody, HeaderFlood, QlogGarbage,
// MidstreamReset). The returned function holds per-connection state;
// create a fresh one per connection. It matches netem.Mangler.
func NewMangler(p Profile) func(data []byte) [][]byte {
	switch p {
	case MalformedHeader:
		return func(data []byte) [][]byte {
			if len(data) == 0 || wire.IsLongHeader(data[0]) {
				return [][]byte{data}
			}
			n := len(data)
			if n > 3 {
				n = 3
			}
			cp := make([]byte, n)
			copy(cp, data[:n])
			return [][]byte{cp}
		}
	case MalformedFrames:
		return func(data []byte) [][]byte {
			if len(data) == 0 || wire.IsLongHeader(data[0]) {
				return [][]byte{data}
			}
			off := 1 + mangledDCIDLen + int(data[0]&0x3) + 1
			if len(data) <= off {
				return [][]byte{data}
			}
			cp := make([]byte, len(data))
			copy(cp, data)
			// 0x1f is not a frame type this wire dialect knows, so frame
			// parsing fails deterministically at the first frame.
			cp[off] = 0x1f
			return [][]byte{cp}
		}
	case SpinFlap:
		return spinRewriter(func(pn byte) bool { return pn&1 == 1 })
	case SpinLiar:
		return spinRewriter(func(pn byte) bool { return (pn>>1)&1 == 1 })
	case Slowloris:
		var pn uint64
		return func(data []byte) [][]byte {
			if len(data) == 0 || !wire.IsLongHeader(data[0]) {
				return nil // drop 1-RTT traffic: no progress, ever
			}
			h, _, _, err := wire.ParseHeader(data, mangledDCIDLen, wire.NoAckedPacket)
			if err != nil {
				return nil
			}
			// Replace the real flight with a padding-only Handshake packet:
			// parseable, counts as received traffic, elicits nothing, and
			// never advances the handshake.
			payload := wire.PaddingFrame{N: 20}.Append(nil)
			hdr := &wire.Header{
				IsLong: true, Type: wire.TypeHandshake, Version: wire.Version1,
				DstConnID: h.DstConnID, SrcConnID: h.SrcConnID, PacketNumber: pn,
			}
			out, err := wire.AppendLongHeader(nil, hdr, payload, wire.NoAckedPacket)
			if err != nil {
				return nil
			}
			pn++
			return [][]byte{out}
		}
	case PacketStorm:
		first := true
		return func(data []byte) [][]byte {
			if !first {
				return [][]byte{data}
			}
			first = false
			out := make([][]byte, StormCopies)
			for i := range out {
				out[i] = data
			}
			return out
		}
	default:
		return nil
	}
}

// spinRewriter rewrites the spin bit of every short-header datagram as a
// function of the packet's own truncated packet number. Short-header
// truncation preserves the low 8 bits, and RFC 9000 §A.3 decoding restores
// them exactly, so the client-side pattern is an exact function of the
// decoded packet number regardless of loss or retransmission.
func spinRewriter(spin func(pnLow byte) bool) func(data []byte) [][]byte {
	return func(data []byte) [][]byte {
		if len(data) == 0 || wire.IsLongHeader(data[0]) {
			return [][]byte{data}
		}
		pnl := int(data[0]&0x3) + 1
		end := 1 + mangledDCIDLen + pnl
		if len(data) < end {
			return [][]byte{data}
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		if spin(cp[end-1]) {
			cp[0] |= wire.SpinBitMask
		} else {
			cp[0] &^= wire.SpinBitMask
		}
		return [][]byte{cp}
	}
}

// fastFlipMax is the inter-arrival gap below which a spin edge between
// adjacent packet numbers is physically impossible for an honest endpoint:
// honest edges are at least one RTT apart (≥ 4 ms in every simulated
// deployment), while in-burst packet spacing is tens of microseconds.
const fastFlipMax = time.Millisecond

// DetectSpinPattern inspects a connection's spin observations for the
// SpinFlap and SpinLiar signatures: an exact packet-number-derived value
// pattern with at least one "fast flip" (an edge between adjacent packet
// numbers closer together than any honest RTT). It is a pure function of
// the observations, so both scan engines reach the same verdict from the
// same series. Returns None when no signature matches.
func DetectSpinPattern(obs []core.Observation) Profile {
	if len(obs) < 4 {
		return None
	}
	// A series already in strictly increasing packet-number order — every
	// series the fast engine synthesises, and most received ones — is its own
	// sorted, duplicate-free form and is read in place.
	if pnStrictlyIncreasing(obs) {
		return spinPattern(obs)
	}
	sorted := make([]core.Observation, len(obs))
	copy(sorted, obs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].PN < sorted[j].PN })
	// Drop duplicate packet numbers (network-duplicated datagrams).
	uniq := sorted[:1]
	for _, o := range sorted[1:] {
		if o.PN != uniq[len(uniq)-1].PN {
			uniq = append(uniq, o)
		}
	}
	return spinPattern(uniq)
}

// spinPattern matches the signatures against a series in strictly
// increasing packet-number order.
func spinPattern(uniq []core.Observation) Profile {
	flap, liar := true, true
	transitions, fastFlip := 0, false
	for i, o := range uniq {
		if o.Spin != (o.PN&1 == 1) {
			flap = false
		}
		if o.Spin != ((o.PN>>1)&1 == 1) {
			liar = false
		}
		if i == 0 {
			continue
		}
		prev := uniq[i-1]
		if o.Spin != prev.Spin {
			transitions++
			if o.PN == prev.PN+1 {
				dt := o.T.Sub(prev.T)
				if dt < 0 {
					dt = -dt
				}
				if dt < fastFlipMax {
					fastFlip = true
				}
			}
		}
	}
	switch {
	case flap && len(uniq) >= 4 && transitions >= 3 && fastFlip:
		return SpinFlap
	case liar && len(uniq) >= 5 && transitions >= 2 && fastFlip:
		return SpinLiar
	default:
		return None
	}
}

func pnStrictlyIncreasing(obs []core.Observation) bool {
	for i := 1; i < len(obs); i++ {
		if obs[i].PN <= obs[i-1].PN {
			return false
		}
	}
	return true
}

// Stream-inspection budgets: an honest HTTP/3-lite response terminates its
// header block within the first packet and never declares a body beyond
// the websim maximum (250 KB), so these caps cannot misfire on honest
// traffic.
const (
	// MaxInspectHeaderBytes is the most unterminated header bytes the
	// scanner accepts before classifying a header flood.
	MaxInspectHeaderBytes = 16 << 10
	// MaxDeclaredBody is the largest declared content-length the scanner
	// will read to completion.
	MaxDeclaredBody = 512 << 10
)

// InspectStream examines a partially received response stream and reports
// the misbehavior profile it evidences, or None. The scanner calls it on
// every delivery so hostile responses are classified as soon as their
// signature is on the wire, without reading them to completion.
func InspectStream(data []byte) Profile {
	if len(data) == 0 {
		return None
	}
	proto := []byte(h3.Proto)
	n := len(proto)
	if n > len(data) {
		n = len(data)
	}
	if !bytes.Equal(data[:n], proto[:n]) {
		if data[0] == '{' || data[0] == 0x1e {
			return QlogGarbage
		}
		return None
	}
	if i := bytes.Index(data, []byte("\n\n")); i >= 0 {
		for _, line := range strings.Split(string(data[:i]), "\n") {
			v, ok := strings.CutPrefix(line, "content-length: ")
			if !ok {
				continue
			}
			var clen int64
			if _, err := fmt.Sscanf(v, "%d", &clen); err == nil && clen > MaxDeclaredBody {
				return OversizedBody
			}
		}
		return None
	}
	if len(data) > MaxInspectHeaderBytes {
		return HeaderFlood
	}
	return None
}

// ResponseBytes builds the response stream a site-level profile serves in
// place of an honest HTTP/3-lite response. It is a pure function of
// (profile, software) so both engines could reproduce it.
func ResponseBytes(p Profile, software string) []byte {
	switch p {
	case OversizedBody:
		var b bytes.Buffer
		fmt.Fprintf(&b, "%s 200\ncontent-length: %d\nserver: %s\n\n", h3.Proto, 4<<20, software)
		junk := bytes.Repeat([]byte("overflow "), 1024)
		b.Write(junk)
		return b.Bytes()
	case HeaderFlood:
		var b bytes.Buffer
		fmt.Fprintf(&b, "%s 200\n", h3.Proto)
		for i := 0; b.Len() < 64<<10; i++ {
			fmt.Fprintf(&b, "x-flood-%06d: %s\n", i, strings.Repeat("y", 80))
		}
		return b.Bytes()
	case QlogGarbage:
		var b bytes.Buffer
		b.WriteString(`{"qlog_version":"0.3","title":"garbage"` + "\n")
		for i := 0; i < 64; i++ {
			fmt.Fprintf(&b, "\x1e{\"time\":%d,\"name\":\"transport:packet_received\",\"data\":{\"trunca", i)
			b.WriteByte('\n')
		}
		b.Write([]byte{0x00, 0xff, 0xfe, '{', '{', '\n'})
		return b.Bytes()
	default:
		return nil
	}
}
