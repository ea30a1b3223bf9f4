package shard

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"quicspin/internal/fault"
	"quicspin/internal/scanner"
)

// mustFaults parses a fault spec the way spinscan -faults does.
func mustFaults(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestShardFaultRules pins the coordinator's side of a parsed fault spec
// (fault.TestParse covers the grammar): shard rules must name a shard the
// campaign has, and a crash scripted "after n deliveries, t times" kills
// exactly the deliveries n..n+t-1 of its shard, whatever the kind.
func TestShardFaultRules(t *testing.T) {
	plan := mustFaults(t, "seed:9, shard.crash:1@25, shard.panic:0@40x2, shard.crash:3@10")
	cfg := Config{Shards: 4, Weeks: []int{1}, ForWeek: baseConfig(scanner.EngineFast, 1), Faults: plan}
	if err := cfg.Validate(); err != nil {
		t.Errorf("plan within the shard count rejected: %v", err)
	}
	cfg.Shards = 3
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), `shard "3"`) {
		t.Errorf("Validate = %v, want the out-of-range crash target rejected", err)
	}
	for shard, dies := range map[string][]int64{"0": {41, 42}, "1": {26}, "2": nil, "3": {11}} {
		hook := crashHook(plan, shard)
		var died []int64
		for n := int64(1); n <= 60; n++ {
			if hookDies(hook, n) {
				died = append(died, n)
			}
		}
		if fmt.Sprint(died) != fmt.Sprint(dies) {
			t.Errorf("shard %s dies on deliveries %v, want %v", shard, died, dies)
		}
	}
	if got := plan.Injected(fault.Shard, fault.AnyKind); got != 4 {
		t.Errorf("injected shard faults = %d, want 4", got)
	}
}

// hookDies reports whether the hook kills delivery n: by returning an error
// (a crash) or by panicking (a panic, which RunStream returns as an error).
func hookDies(hook func(int64) error, n int64) (died bool) {
	defer func() {
		if recover() != nil {
			died = true
		}
	}()
	return hook(n) != nil
}

// TestCrashSpecDefaults: a crash spec without a multiplier kills one
// delivery, so one restart recovers it.
func TestCrashSpecDefaults(t *testing.T) {
	hook := crashHook(mustFaults(t, "shard.crash:0@3"), "0")
	for n := int64(1); n <= 10; n++ {
		if died := hook(n) != nil; died != (n == 4) {
			t.Errorf("delivery %d: died = %v", n, died)
		}
	}
}

func TestBuildCoverage(t *testing.T) {
	statuses := []ShardStatus{
		{Shard: 0, Range: Range{0, 10}, State: ShardOK},
		{Shard: 1, Range: Range{10, 20}, State: ShardLost},
		{Shard: 2, Range: Range{20, 30}, State: ShardLost},
		{Shard: 3, Range: Range{30, 40}, State: ShardRecovered, Restarts: 1, Faults: []string{"attempt 1: injected"}},
	}
	cov := buildCoverage(40, statuses)
	if cov.Complete() {
		t.Fatal("lossy coverage reads as complete")
	}
	if cov.CoveredDomains != 20 || cov.TotalDomains != 40 {
		t.Errorf("covered %d/%d, want 20/40", cov.CoveredDomains, cov.TotalDomains)
	}
	// Adjacent lost shards coalesce into one missing range.
	if len(cov.Missing) != 1 || (cov.Missing[0] != Range{10, 30}) {
		t.Errorf("missing = %v, want [{10 30}]", cov.Missing)
	}
	if f := cov.Fraction(); f != 0.5 {
		t.Errorf("fraction = %v, want 0.5", f)
	}
	ann := cov.Confidence("Table 1")
	for _, part := range []string{"Table 1", "50.0%", "20 of 40", "[10,30)"} {
		if !strings.Contains(ann, part) {
			t.Errorf("confidence %q missing %q", ann, part)
		}
	}
	rendered := RenderCoverage(cov).String()
	for _, part := range []string{"20 of 40", "lost", "recovered", "attempt 1: injected", "[10,20)"} {
		if !strings.Contains(rendered, part) {
			t.Errorf("coverage table missing %q:\n%s", part, rendered)
		}
	}

	full := buildCoverage(40, []ShardStatus{{Shard: 0, Range: Range{0, 40}, State: ShardOK}})
	if !full.Complete() || full.Confidence("Table 1") != "" || full.Fraction() != 1 {
		t.Errorf("clean coverage = %+v", full)
	}
	if empty := buildCoverage(0, nil); !empty.Complete() || empty.Fraction() != 1 {
		t.Errorf("empty coverage = %+v", empty)
	}
}

func TestShardStateString(t *testing.T) {
	cases := map[ShardState]string{ShardOK: "ok", ShardRecovered: "recovered", ShardLost: "lost", ShardState(9): "ShardState(9)"}
	for state, want := range cases {
		if got := state.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(state), got, want)
		}
	}
}

// FuzzSubmissionFrame pins the framing's two safety properties: a framed
// submission round-trips exactly, and any single-bit corruption of the
// frame — header, payload or trailer — is rejected, never silently
// accepted or panicking.
func FuzzSubmissionFrame(f *testing.F) {
	f.Add([]byte("accumulator blob"), uint16(3), uint16(7))
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0xff}, 300), uint16(63), uint16(1000))
	f.Fuzz(func(t *testing.T, blob []byte, shard16, bit16 uint16) {
		const want = 64
		shard := int(shard16 % want)
		frame := frameSubmission(shard, blob)
		gotShard, gotBlob, derr := parseSubmission(frame, want)
		if derr != nil {
			t.Fatalf("freshly framed submission rejected: %v", derr)
		}
		if gotShard != shard || !bytes.Equal(gotBlob, blob) {
			t.Fatalf("round trip = shard %d, %d bytes; want shard %d, %d bytes", gotShard, len(gotBlob), shard, len(blob))
		}
		bit := int(bit16) % (8 * len(frame))
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << (bit % 8)
		if s, b, derr := parseSubmission(mut, want); derr == nil {
			t.Fatalf("bit flip %d accepted as shard %d with %d bytes", bit, s, len(b))
		}
		// Raw unframed bytes must be rejected without panicking too.
		if _, _, derr := parseSubmission(blob, want); derr == nil && len(blob) > 0 {
			// A blob that happens to be a valid frame is astronomically
			// unlikely but legal; only a nil error with empty input is a bug.
			if len(blob) <= 4 {
				t.Fatalf("tiny unframed payload accepted")
			}
		}
	})
}
