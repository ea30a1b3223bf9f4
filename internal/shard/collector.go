package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"quicspin/internal/fault"
	"quicspin/internal/resilience"
	"quicspin/internal/transport"
	"quicspin/internal/udprun"
)

// The accumulator exchange: a submitter opens one QUIC-lite connection to
// the collector endpoint and sends its submission on the first client
// stream, closed with FIN. The submission is CRC-framed:
//
//	uvarint shard | uvarint len(blob) | blob | crc32c over everything before
//
// The checksum covers the whole payload — header included — so a single
// bit flip anywhere (a faulty link corrupting the shard index is as fatal
// as one corrupting the blob) turns into a structured decode error and a
// NAK instead of silently mis-attributed data. The collector replies with
// one byte on the same stream: ACK for an accepted (or byte-identical
// duplicate) submission, NAK for a rejected one; the worker retries NAKs
// and ack timeouts with an identical resubmission, which the collector
// deduplicates by shard index and byte equality. Both sides run the exact
// sans-IO transport the scanner emulates, driven over real UDP sockets by
// internal/udprun.
const (
	// submitStream is the client-initiated stream carrying the submission.
	submitStream = 0
	// submitAck is the collector's receipt byte.
	submitAck = 0xA5
	// submitNak is the collector's rejection byte: the submission arrived
	// complete but failed to decode (or claimed an out-of-range shard).
	submitNak = 0x5A
)

// castagnoli is the CRC-32C table used to frame submissions.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameSubmission builds the wire payload for one shard's accumulator.
func frameSubmission(shard int, blob []byte) []byte {
	payload := binary.AppendUvarint(make([]byte, 0, len(blob)+2*binary.MaxVarintLen64+crc32.Size), uint64(shard))
	payload = binary.AppendUvarint(payload, uint64(len(blob)))
	payload = append(payload, blob...)
	return binary.BigEndian.AppendUint32(payload, crc32.Checksum(payload, castagnoli))
}

// DecodeError is one rejected submission: what the collector could not
// accept and why. Decode errors ride on CollectError when shards end up
// missing.
type DecodeError struct {
	// Shard is the claimed shard index, or -1 when the submission was too
	// mangled to attribute (bad header, checksum mismatch).
	Shard int
	// Reason classifies the rejection: "header", "crc", "shard-range",
	// "length" or "conflict".
	Reason string
	// Detail is the human-readable specifics.
	Detail string
}

func (e *DecodeError) Error() string {
	who := "unattributed submission"
	if e.Shard >= 0 {
		who = fmt.Sprintf("shard %d submission", e.Shard)
	}
	return fmt.Sprintf("shard: %s rejected (%s): %s", who, e.Reason, e.Detail)
}

// parseSubmission validates and splits a framed submission. The returned
// blob aliases data.
func parseSubmission(data []byte, want int) (int, []byte, *DecodeError) {
	if len(data) <= crc32.Size {
		return 0, nil, &DecodeError{Shard: -1, Reason: "header", Detail: fmt.Sprintf("%d bytes is shorter than the checksum trailer", len(data))}
	}
	body, trailer := data[:len(data)-crc32.Size], data[len(data)-crc32.Size:]
	if got, sum := crc32.Checksum(body, castagnoli), binary.BigEndian.Uint32(trailer); got != sum {
		return 0, nil, &DecodeError{Shard: -1, Reason: "crc", Detail: fmt.Sprintf("checksum %08x, want %08x", got, sum)}
	}
	shard, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, nil, &DecodeError{Shard: -1, Reason: "header", Detail: "bad shard varint"}
	}
	body = body[n:]
	if shard >= uint64(want) {
		return 0, nil, &DecodeError{Shard: int(shard), Reason: "shard-range", Detail: fmt.Sprintf("shard %d out of range (collector expects %d shards)", shard, want)}
	}
	size, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, nil, &DecodeError{Shard: int(shard), Reason: "header", Detail: "bad length varint"}
	}
	body = body[n:]
	if uint64(len(body)) != size {
		return 0, nil, &DecodeError{Shard: int(shard), Reason: "length", Detail: fmt.Sprintf("%d payload bytes, header says %d", len(body), size)}
	}
	return int(shard), body, nil
}

// Collector receives serialized shard accumulators over loopback UDP. The
// campaign runner merges without it; its one caller outside tests is the
// benchmark's shard.submit_udp row (bench/layers.go), and the CRC framing
// is what a child-process merge path would reuse (ROADMAP item 17).
type Collector struct {
	pc     net.PacketConn
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	want      int
	blobs     map[int][]byte
	decodeErr []DecodeError
	full      chan struct{} // closed once every shard has submitted
}

// NewCollector starts a collector expecting one submission per shard on a
// fresh loopback socket (Addr reports where). A non-nil faults plan
// injects its udp faults into the collector's outbound traffic (its acks
// and transport-level replies) — the receive-side half of the exchange,
// the worker's FaultConn being the send side.
func NewCollector(want int, faults *fault.Plan) (*Collector, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("shard: collector listen: %w", err)
	}
	c := &Collector{
		pc:    pc,
		done:  make(chan struct{}),
		want:  want,
		blobs: map[int][]byte{},
		full:  make(chan struct{}),
	}
	if want == 0 {
		close(c.full)
	}
	// One rng for every accepted connection's transport randomness: the
	// runner drives all connections from a single goroutine. The zero
	// Budget is deliberate — submissions are trusted loopback traffic and
	// may exceed the scanner's hostile-endpoint caps.
	rng := rand.New(rand.NewSource(0x5eedc011))
	ep := transport.NewEndpoint(func(peer string) transport.Config {
		return transport.Config{Rng: rng}
	})
	runnerConn := net.PacketConn(pc)
	if faults != nil {
		runnerConn = udprun.NewFaultConn(runnerConn, faults, "collector")
	}
	// Checksum framing sits outside the fault injector: injected
	// corruption mangles a protected frame, the receiver drops it, and
	// QUIC-lite loss recovery retransmits — corruption degrades to loss
	// instead of reaching the stream.
	runner := udprun.NewEndpointRunner(ep, udprun.NewChecksumConn(runnerConn))
	runner.OnActivity = c.onActivity
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	go func() {
		defer close(c.done)
		_ = runner.Run(ctx)
	}()
	return c, nil
}

// Addr is the collector's UDP address (pass to Submit).
func (c *Collector) Addr() net.Addr { return c.pc.LocalAddr() }

// Close stops the collector and releases its socket.
func (c *Collector) Close() {
	c.cancel()
	c.pc.Close()
	<-c.done
}

// onActivity consumes completed submission streams, acking accepted ones
// and nak'ing rejects; a completed stream other than submitStream is not a
// submission and is ignored. It runs on the endpoint runner's goroutine after
// every receive or timer event.
func (c *Collector) onActivity(ep *transport.Endpoint, _ time.Time) {
	for st, ok := ep.AcceptStream(); ok; st, ok = ep.AcceptStream() {
		if st.ID != submitStream {
			continue
		}
		reply := byte(submitAck)
		if shard, blob, derr := parseSubmission(st.Data, c.want); derr != nil {
			// The worker retries a NAK with an identical resubmission, so
			// transport corruption that slipped past QUIC-lite recovery
			// heals here instead of losing the shard.
			c.noteDecodeError(*derr)
			reply = submitNak
		} else {
			// record dedupes; a byte-different conflict is recorded there
			// but still acked — first submission wins and the worker must
			// not hang retrying a verdict that will never change. blob
			// aliases the connection's receive buffer and is kept past the
			// connection: these connections have no arena to take it back.
			c.record(shard, blob)
		}
		_ = st.Conn.SendStream(submitStream, []byte{reply}, true)
	}
}

// record stores one decoded submission, deduplicating resubmissions by
// byte equality (idempotence for retried submits whose ack was lost).
func (c *Collector) record(shard int, blob []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, dup := c.blobs[shard]; dup {
		if !bytes.Equal(prev, blob) {
			c.decodeErr = append(c.decodeErr, DecodeError{
				Shard:  shard,
				Reason: "conflict",
				Detail: fmt.Sprintf("duplicate submission differs from the recorded one (%d vs %d bytes); keeping the first", len(blob), len(prev)),
			})
		}
		return
	}
	c.blobs[shard] = blob
	// parseSubmission admits only shards below want, so the count reaches
	// want exactly once.
	if len(c.blobs) == c.want {
		close(c.full)
	}
}

// noteDecodeError appends one structured rejection.
func (c *Collector) noteDecodeError(e DecodeError) {
	c.mu.Lock()
	c.decodeErr = append(c.decodeErr, e)
	c.mu.Unlock()
}

// CollectError is Wait's structured failure: which shards never arrived
// and every decode rejection recorded along the way — so a missing shard
// caused by, say, persistent checksum failures names its cause instead of
// reading as a bare timeout.
type CollectError struct {
	Want    int
	Got     int
	Missing []int
	Decode  []DecodeError
}

func (e *CollectError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shard: collector timed out with %d of %d accumulators (missing shards %v)", e.Got, e.Want, e.Missing)
	for i := range e.Decode {
		b.WriteString("; ")
		b.WriteString(e.Decode[i].Error())
	}
	return b.String()
}

// Wait blocks until every shard has submitted (or the timeout elapses) and
// returns the blobs keyed by shard index. Timeouts return a *CollectError
// naming the missing shards and any recorded decode errors.
func (c *Collector) Wait(timeout time.Duration) (map[int][]byte, error) {
	select {
	case <-c.full:
	case <-time.After(timeout):
		c.mu.Lock()
		defer c.mu.Unlock()
		cerr := &CollectError{
			Want:   c.want,
			Got:    len(c.blobs),
			Decode: append([]DecodeError(nil), c.decodeErr...),
		}
		for shard := 0; shard < c.want; shard++ {
			if _, ok := c.blobs[shard]; !ok {
				cerr.Missing = append(cerr.Missing, shard)
			}
		}
		return nil, cerr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int][]byte, len(c.blobs))
	for k, v := range c.blobs {
		out[k] = v
	}
	return out, nil
}

// SubmitError is a failed submission with its full retry history: which
// shard, how many attempts were burned and over how long. Unwrap exposes
// the final attempt's error.
type SubmitError struct {
	Shard    int
	Attempts int
	Elapsed  time.Duration
	Err      error
}

func (e *SubmitError) Error() string {
	return fmt.Sprintf("shard: submit shard %d failed after %d attempt(s) in %v: %v",
		e.Shard, e.Attempts, e.Elapsed.Round(time.Millisecond), e.Err)
}

func (e *SubmitError) Unwrap() error { return e.Err }

// SubmitPolicy shapes a retried submission.
type SubmitPolicy struct {
	// MaxAttempts bounds total tries (default 3). 1 disables retrying.
	MaxAttempts int
	// AckTimeout bounds each attempt's wait for the collector's reply
	// (default 5s).
	AckTimeout time.Duration
	// Backoff paces the real-time sleep between attempts; the zero value
	// takes the resilience defaults (250ms base, doubling, 5s cap).
	Backoff resilience.RetryPolicy
	// Faults, when non-nil, wraps the submit socket in a FaultConn — the
	// send-side half of the exchange.
	Faults *fault.Plan
	// OnRetry observes each retry before its backoff sleep: the upcoming
	// attempt number (1-based count of completed attempts) and the error
	// that caused it.
	OnRetry func(attempt int, err error)
}

func (p SubmitPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 3
	}
	return p.MaxAttempts
}

func (p SubmitPolicy) ackTimeout() time.Duration {
	if p.AckTimeout <= 0 {
		return 5 * time.Second
	}
	return p.AckTimeout
}

// SubmitWithPolicy delivers one shard's serialized campaign with bounded
// retries: each NAK or ack timeout burns one attempt and resends an
// identical submission after a backoff (the collector deduplicates, so
// resubmission is idempotent). Failure returns a *SubmitError.
func SubmitWithPolicy(addr string, shard int, blob []byte, p SubmitPolicy) error {
	attempts := p.attempts()
	// Backoff jitter is deterministic per shard.
	rng := rand.New(rand.NewSource(0x5eedacc + int64(shard)))
	start := time.Now()
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if p.OnRetry != nil {
				p.OnRetry(attempt, err)
			}
			time.Sleep(p.Backoff.Backoff(rng, attempt-1))
		}
		if err = submitOnce(addr, shard, blob, p.ackTimeout(), p.Faults, attempt); err == nil {
			return nil
		}
	}
	return &SubmitError{Shard: shard, Attempts: attempts, Elapsed: time.Since(start), Err: err}
}

// submitOnce performs one submission attempt.
func submitOnce(addr string, shard int, blob []byte, timeout time.Duration, faults *fault.Plan, attempt int) error {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer pc.Close()
	runnerConn := net.PacketConn(pc)
	if faults != nil {
		// Every datagram is a fresh operation of the plan, so a retry is
		// not doomed to replay the attempt's faults.
		runnerConn = udprun.NewFaultConn(runnerConn, faults, "shard-"+strconv.Itoa(shard))
	}
	runnerConn = udprun.NewChecksumConn(runnerConn)
	rng := rand.New(rand.NewSource(0x5eed + int64(shard)*977 + int64(attempt)))
	conn := transport.NewClientConn(transport.Config{Rng: rng}, time.Now())
	if err := conn.SendStream(submitStream, frameSubmission(shard, blob), true); err != nil {
		return err
	}
	runner := udprun.NewConnRunner(conn, runnerConn, raddr)
	acked, naked := false, false
	runner.OnActivity = func(conn *transport.Conn, now time.Time) {
		if acked || naked {
			return
		}
		if data, fin := conn.StreamRecv(submitStream); fin {
			if len(data) > 0 && data[len(data)-1] == submitAck {
				acked = true
			} else {
				naked = true
			}
			conn.Close(now, 0, "submitted")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err = runner.Run(ctx)
	switch {
	case acked:
		return nil
	case naked:
		return fmt.Errorf("collector rejected submission (nak)")
	case err != nil:
		return err
	default:
		return fmt.Errorf("connection closed before ack")
	}
}
