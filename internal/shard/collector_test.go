package shard

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"quicspin/internal/resilience"
	"quicspin/internal/transport"
	"quicspin/internal/udprun"
)

// submit ships blob as shard's submission with the default retry policy.
func submit(col *Collector, shard int, blob []byte) error {
	return SubmitWithPolicy(col.Addr().String(), shard, blob, SubmitPolicy{})
}

// decodeErrors returns the rejections col has recorded so far, oldest first.
func decodeErrors(col *Collector) []DecodeError {
	col.mu.Lock()
	defer col.mu.Unlock()
	return append([]DecodeError(nil), col.decodeErr...)
}

func TestCollectorRoundTrip(t *testing.T) {
	const want = 3
	col, err := NewCollector(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	blobs := make([][]byte, want)
	for i := range blobs {
		blobs[i] = bytes.Repeat([]byte{byte('a' + i)}, 100*(i+1))
	}
	var wg sync.WaitGroup
	for i := range blobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := submit(col, i, blobs[i]); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	got, err := col.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want {
		t.Fatalf("collector holds %d blobs, want %d", len(got), want)
	}
	for i := range blobs {
		if !bytes.Equal(got[i], blobs[i]) {
			t.Errorf("shard %d blob mangled: %d bytes, want %d", i, len(got[i]), len(blobs[i]))
		}
	}
	if errs := decodeErrors(col); len(errs) != 0 {
		t.Errorf("clean round trip recorded decode errors: %v", errs)
	}
}

// TestCollectorDuplicate checks resubmission semantics: a byte-identical
// duplicate is acked silently (idempotent retry), a byte-different one is
// still acked (the worker must not hang) but recorded as a conflict, and
// the first blob wins either way.
func TestCollectorDuplicate(t *testing.T) {
	col, err := NewCollector(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if err := submit(col, 0, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := submit(col, 0, []byte("first")); err != nil {
		t.Fatalf("identical resubmission not acked: %v", err)
	}
	if errs := decodeErrors(col); len(errs) != 0 {
		t.Errorf("identical resubmission recorded as conflict: %v", errs)
	}
	if err := submit(col, 0, []byte("second")); err != nil {
		t.Fatalf("conflicting duplicate not acked: %v", err)
	}
	if err := submit(col, 1, []byte("other")); err != nil {
		t.Fatal(err)
	}
	got, err := col.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "first" {
		t.Errorf("duplicate overwrote shard 0: %q", got[0])
	}
	errs := decodeErrors(col)
	if len(errs) != 1 || errs[0].Reason != "conflict" || errs[0].Shard != 0 {
		t.Errorf("conflicting duplicate not recorded: %v", errs)
	}
}

// rawSubmit opens one connection to the collector, sends each payload on its
// stream with FIN, and returns what came back per stream once the collector
// has finished answering stream await (nothing for a stream never answered).
func rawSubmit(t *testing.T, col *Collector, payloads map[uint64][]byte, await uint64) map[uint64][]byte {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	conn := transport.NewClientConn(transport.Config{Rng: rand.New(rand.NewSource(1))}, time.Now())
	for id, payload := range payloads {
		if err := conn.SendStream(id, payload, true); err != nil {
			t.Fatal(err)
		}
	}
	replies := map[uint64][]byte{}
	runner := udprun.NewConnRunner(conn, udprun.NewChecksumConn(pc), col.Addr())
	runner.OnActivity = func(conn *transport.Conn, now time.Time) {
		if _, fin := conn.StreamRecv(await); !fin || conn.Terminating() {
			return
		}
		for id := range payloads {
			if data, _ := conn.StreamRecv(id); len(data) > 0 {
				replies[id] = append([]byte(nil), data...)
			}
		}
		conn.Close(now, 0, "done")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := runner.Run(ctx); err != nil {
		t.Fatalf("stream %d never answered: %v", await, err)
	}
	return replies
}

// TestCollectorAcceptsSubmitStreamOnce drives the exchange a NAK-retried
// shard produces — several connections for one shard — byte by byte: a
// rejected submission is NAK'd, the retry and an identical resubmission are
// each ACK'd on their own connection, one blob remains, and a completed
// stream other than submitStream is ignored, never parsed as a submission.
func TestCollectorAcceptsSubmitStreamOnce(t *testing.T) {
	col, err := NewCollector(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	good := frameSubmission(0, []byte("accumulator"))
	mangled := append([]byte(nil), good...)
	mangled[len(mangled)/2] ^= 0x40

	if got := rawSubmit(t, col, map[uint64][]byte{submitStream: mangled}, submitStream); !bytes.Equal(got[submitStream], []byte{submitNak}) {
		t.Errorf("mangled submission answered %x, want the NAK byte", got[submitStream])
	}
	// The good frame on stream 4 rides beside garbage on the submit stream:
	// only the submit stream is read, so this connection is a NAK too.
	got := rawSubmit(t, col, map[uint64][]byte{submitStream: []byte("garbage"), 4: good}, submitStream)
	if !bytes.Equal(got[submitStream], []byte{submitNak}) || got[4] != nil {
		t.Errorf("replies %x: want a NAK on the submit stream and silence on stream 4", got)
	}
	if blobs, err := col.Wait(50 * time.Millisecond); err == nil {
		t.Fatalf("collector recorded %v from a stream that is not the submit stream", blobs)
	}
	for i := 0; i < 2; i++ { // the retry, then an identical resubmission
		if got := rawSubmit(t, col, map[uint64][]byte{submitStream: good}, submitStream); !bytes.Equal(got[submitStream], []byte{submitAck}) {
			t.Errorf("good submission %d answered %x, want the ACK byte", i, got[submitStream])
		}
	}
	blobs, err := col.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 || string(blobs[0]) != "accumulator" {
		t.Errorf("collector holds %q, want the one accumulator", blobs)
	}
	errs := decodeErrors(col)
	if len(errs) != 2 || errs[0].Reason != "crc" || errs[1].Reason != "crc" {
		t.Errorf("decode errors %v, want the two rejected submit streams and nothing from stream 4", errs)
	}
}

// TestCollectorTimeout pins the missing-shard diagnostic: an out-of-range
// submission is NAK'd and recorded, so the submitting worker learns it was
// rejected and Wait's CollectError names both the shortfall and the cause.
func TestCollectorTimeout(t *testing.T) {
	col, err := NewCollector(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if err := submit(col, 0, []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Shard index 7 is out of range for want=2: NAK'd on every attempt.
	err = SubmitWithPolicy(col.Addr().String(), 7, []byte("bad"), SubmitPolicy{MaxAttempts: 1, AckTimeout: 5 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("out-of-range submission = %v, want nak rejection", err)
	}
	var serr *SubmitError
	if !errors.As(err, &serr) || serr.Shard != 7 || serr.Attempts != 1 {
		t.Errorf("out-of-range submission error = %#v, want *SubmitError{Shard: 7, Attempts: 1}", err)
	}
	_, err = col.Wait(200 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "1 of 2") {
		t.Fatalf("Wait = %v, want timeout naming 1 of 2 accumulators", err)
	}
	var cerr *CollectError
	if !errors.As(err, &cerr) {
		t.Fatalf("Wait error is %T, want *CollectError", err)
	}
	if len(cerr.Missing) != 1 || cerr.Missing[0] != 1 {
		t.Errorf("CollectError.Missing = %v, want [1]", cerr.Missing)
	}
	if len(cerr.Decode) != 1 || cerr.Decode[0].Reason != "shard-range" || cerr.Decode[0].Shard != 7 {
		t.Errorf("CollectError.Decode = %v, want one shard-range rejection for shard 7", cerr.Decode)
	}
}

func TestCollectorZeroShards(t *testing.T) {
	col, err := NewCollector(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	got, err := col.Wait(time.Second)
	if err != nil || len(got) != 0 {
		t.Errorf("Wait = %v, %v; want empty map", got, err)
	}
}

func TestParseSubmission(t *testing.T) {
	shard, blob, derr := parseSubmission(frameSubmission(1, []byte("xy")), 2)
	if derr != nil || shard != 1 || string(blob) != "xy" {
		t.Errorf("parseSubmission = %d, %q, %v", shard, blob, derr)
	}
	cases := []struct {
		name   string
		data   []byte
		reason string
	}{
		{"empty", nil, "header"},
		{"short", []byte{1, 2, 3}, "header"},
		{"unframed", []byte("raw bytes without framing"), "crc"},
		{"shard-range", frameSubmission(5, []byte("x")), "shard-range"},
	}
	for _, tc := range cases {
		_, _, derr := parseSubmission(tc.data, 2)
		if derr == nil || derr.Reason != tc.reason {
			t.Errorf("parseSubmission(%s) = %v, want %s rejection", tc.name, derr, tc.reason)
		}
	}
	// Every single-bit flip anywhere in the frame — header, payload or
	// checksum — must be rejected: the CRC covers the whole frame, so no
	// flip can silently reattribute or mangle a submission.
	frame := frameSubmission(1, []byte("accumulator bytes"))
	for bit := 0; bit < 8*len(frame); bit++ {
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << (bit % 8)
		if s, b, derr := parseSubmission(mut, 2); derr == nil {
			t.Fatalf("bit flip %d accepted: shard %d, %q", bit, s, b)
		}
	}
}

// TestSubmitRetriesHealFaultyTransport pins the hardening claim: with
// aggressive datagram faults on both sides (drop, dup, corrupt, delay),
// retried idempotent submission still delivers every blob intact.
func TestSubmitRetriesHealFaultyTransport(t *testing.T) {
	faults := mustFaults(t, "seed:42,udp.drop:0.1,udp.dup:0.1,udp.corrupt:0.05,udp.delay:0.1,udp.max-delay:5ms")
	const want = 4
	col, err := NewCollector(want, faults)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	blobs := make([][]byte, want)
	var wg sync.WaitGroup
	for i := range blobs {
		blobs[i] = bytes.Repeat([]byte{byte('A' + i)}, 512*(i+1))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := SubmitWithPolicy(col.Addr().String(), i, blobs[i], SubmitPolicy{
				MaxAttempts: 5,
				AckTimeout:  2 * time.Second,
				Backoff:     resilience.RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, Jitter: -1},
				Faults:      faults,
			})
			if err != nil {
				t.Errorf("submit %d through faulty transport: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	got, err := col.Wait(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blobs {
		if !bytes.Equal(got[i], blobs[i]) {
			t.Errorf("shard %d blob corrupted in transit: %d bytes, want %d", i, len(got[i]), len(blobs[i]))
		}
	}
}

// TestSubmitNoCollector exercises the worker-side failure path: submitting
// to a dead address must time out with a descriptive error, not hang.
func TestSubmitNoCollector(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close() // nothing listens here anymore
	err = SubmitWithPolicy(addr, 0, []byte("lost"), SubmitPolicy{MaxAttempts: 1, AckTimeout: 300 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "submit shard 0") {
		t.Errorf("submit to dead address = %v, want shard-labelled error", err)
	}
	if err := SubmitWithPolicy("not-an-address:port", 1, nil, SubmitPolicy{MaxAttempts: 1, AckTimeout: time.Second}); err == nil {
		t.Error("SubmitWithPolicy accepted an unresolvable address")
	}
}
