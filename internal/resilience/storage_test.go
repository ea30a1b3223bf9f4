package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"quicspin/internal/fault"
)

// stubFaultFS fails exactly the chosen operations — deterministic fault
// placement where FaultFS's Bernoulli draws would be overkill.
type stubFaultFS struct {
	FS
	failOpens int // fail the first N OpenAppend calls
	opens     int
}

func (s *stubFaultFS) OpenAppend(path string) (File, error) {
	s.opens++
	if s.opens <= s.failOpens {
		return nil, fmt.Errorf("open %s: %w", path, ErrNoSpace)
	}
	return s.FS.OpenAppend(path)
}

// TestReplayTornLineMidSegment is the satellite regression: a torn line
// glued into the *middle* of a segment (failed write followed by more
// appends to the same file, as pre-rotation journals could produce) must
// not swallow the records around it.
func TestReplayTornLineMidSegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seg := []byte(`{"k":"a","s":1,"v":{"n":1}}` + "\n" +
		`{"k":"b","s":2,"v":{"n` + "\n" + // torn mid-segment
		`{"k":"c","s":3,"v":{"n":3}}` + "\n" +
		`{"k":"a","s":4,"v":{"n":4}}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, segmentName(0, 1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	got, torn, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 1 {
		t.Errorf("torn = %d, want 1", torn)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d keys, want 2 (a, c)", len(got))
	}
	var a struct{ N int }
	if err := json.Unmarshal(got["a"], &a); err != nil || a.N != 4 {
		t.Errorf("a = %s (err %v), want n=4", got["a"], err)
	}
	if _, ok := got["c"]; !ok {
		t.Error("record after the torn line was lost")
	}
}

// TestReplayDuplicateKeysAcrossFiles is the satellite determinism fix: the
// newest record must win by sequence number even when it lives in a file
// whose name sorts *before* the older record's file.
func TestReplayDuplicateKeysAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	// "compact-…" (a segment name older builds wrote) sorts before
	// "shard-…": without sequence numbers, name-order replay would resurrect
	// the stale value.
	newer := `{"k":"dup","s":9,"v":{"n":9}}` + "\n"
	older := `{"k":"dup","s":2,"v":{"n":2}}` + "\n" + `{"k":"only","s":3,"v":{"n":3}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "compact-000001.jsonl"), []byte(newer), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(0, 2)), []byte(older), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dup struct{ N int }
	if err := json.Unmarshal(got["dup"], &dup); err != nil || dup.N != 9 {
		t.Fatalf("dup = %s, want the seq-9 record regardless of file order", got["dup"])
	}
	// Legacy seq-less records still resolve by sorted (file, line) order.
	legacyDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacyDir, "shard-000.jsonl"), []byte(`{"k":"x","v":{"n":1}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(legacyDir, "shard-001.jsonl"), []byte(`{"k":"x","v":{"n":2}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err = Replay(legacyDir)
	if err != nil {
		t.Fatal(err)
	}
	var x struct{ N int }
	if err := json.Unmarshal(got["x"], &x); err != nil || x.N != 2 {
		t.Fatalf("legacy x = %s, want later-file record", got["x"])
	}
}

// TestJournalSeqContinuesAcrossReopen: sequence numbers issued by a
// reopened journal must rise above everything already on disk, or replay's
// last-complete-wins would invert.
func TestJournalSeqContinuesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	for round := 1; round <= 3; round++ {
		j, err := OpenJournalWith(dir, JournalConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(0, "k", map[string]int{"round": round}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	var v struct{ Round int }
	if err := json.Unmarshal(got["k"], &v); err != nil || v.Round != 3 {
		t.Fatalf("k = %s, want the round-3 record", got["k"])
	}
}

// lineageDir builds a checkpoint directory the way its history would have:
// a segment of seq-less lines under the oldest file name, plain counters
// 1…n as every handle before generation-prefixed numbers wrote them, and a
// compact-… segment holding counters too, as builds that compacted their
// journals left it. Key k<i> holds {"n":i} where it
// was last written; k0 and k1 are in all three files.
func lineageDir(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	var legacy, counters, compacted strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&legacy, `{"k":"k%d","v":{"n":-1}}`+"\n", i%2)
		fmt.Fprintf(&counters, `{"k":"k%d","s":%d,"v":{"n":%d}}`+"\n", i, i+1, i)
	}
	fmt.Fprintf(&compacted, `{"k":"k0","s":%d,"v":{"n":0}}`+"\n"+`{"k":"old","s":%d,"v":{"n":-2}}`+"\n", n+1, n+2)
	fmt.Fprintf(&counters, `{"k":"k0","s":%d,"v":{"n":0}}`+"\n", n+3) // above the compacted copy
	for name, body := range map[string]string{
		"shard-000.jsonl":      legacy.String(),
		segmentName(1, 3):      counters.String(),
		"compact-000002.jsonl": compacted.String(),
		"compact-9.tmp":        "stranded staging file\n",
		"shard-000-7.part":     "not a segment\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestOpenJournalReadsNoSegment: opening costs a directory listing, however
// many generations — rotated, compacted, legacy-named — the directory holds.
func TestOpenJournalReadsNoSegment(t *testing.T) {
	for _, rounds := range []int{3, 6, 12} {
		dir := lineageDir(t, 20)
		for round := 0; round < rounds; round++ {
			j, err := OpenJournalWith(dir, JournalConfig{SegmentBytes: 200})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				if err := j.Append(i%2, fmt.Sprintf("k%d", i), map[string]int{"n": round}); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
		names, _ := OSFS.ReadDir(dir)
		fs := &countingFS{FS: OSFS}
		j, err := OpenJournalWith(dir, JournalConfig{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if fs.opens != 0 {
			t.Errorf("after %d rounds (%d files): OpenJournalWith read %d segment files, want 0", rounds, len(names), fs.opens)
		}
		if err := j.Append(0, "k0", map[string]int{"n": rounds}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got, _, err := Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(`{"n":%d}`, rounds); string(got["k0"]) != want {
			t.Errorf("after %d rounds: k0 = %s, want the record of the handle opened last, %s", rounds, got["k0"], want)
		}
	}
}

// TestJournalMixedLineage: a directory written by every earlier form of the
// journal keeps replaying, anything a new handle appends wins over all of
// it, and handles opened one after the other issue disjoint, rising numbers
// across rotations.
func TestJournalMixedLineage(t *testing.T) {
	const n = 20
	dir := lineageDir(t, n)
	type value struct{ H, N int } // H is the handle that wrote it; the old files have none
	want := map[string]int{"old": -2}
	for i := 0; i < n; i++ {
		want[fmt.Sprintf("k%d", i)] = i
	}
	check := func(stage string) {
		t.Helper()
		replayed, torn, err := Replay(dir)
		if err != nil || torn != 0 {
			t.Fatalf("%s: replay: %d torn, err %v", stage, torn, err)
		}
		got := map[string]int{}
		for k, raw := range replayed {
			var v value
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Fatalf("%s: %s = %s: %v", stage, k, raw, err)
			}
			got[k] = v.N
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: replay = %v, want %v", stage, got, want)
		}
	}
	check("as found")

	for h := 1; h <= 2; h++ {
		j, err := OpenJournalWith(dir, JournalConfig{SegmentBytes: 100})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("k%d", (i*h)%n)
			if err := j.Append(i%2, key, value{H: h, N: 100*h + i}); err != nil {
				t.Fatal(err)
			}
			want[key] = 100*h + i
		}
		if st := j.Stats(); st.Rotations < 3 {
			t.Fatalf("handle %d rotated %d times; the test needs several", h, st.Rotations)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after handle %d", h))
	}

	// Every line on disk: a handle never repeats a number, and each handle's
	// numbers lie above everything written before it was opened.
	var lo, hi [3]int64
	issued := map[int64]bool{}
	names, _ := OSFS.ReadDir(dir)
	for _, name := range names {
		if !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		body, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			var r journalRecord
			var v value
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("%s: %q: %v", name, line, err)
			}
			if err := json.Unmarshal(r.V, &v); err != nil {
				t.Fatalf("%s: %q: %v", name, line, err)
			}
			if v.H > 0 && issued[r.S] {
				t.Fatalf("sequence number %d issued twice", r.S)
			}
			issued[r.S] = true
			if lo[v.H] == 0 || r.S < lo[v.H] {
				lo[v.H] = r.S
			}
			hi[v.H] = max(hi[v.H], r.S)
		}
	}
	if !(hi[0] < lo[1] && hi[1] < lo[2]) {
		t.Fatalf("number ranges overlap: old files ≤ %d, handle 1 [%d, %d], handle 2 [%d, %d]", hi[0], lo[1], hi[1], lo[2], hi[2])
	}
}

// TestJournalRotation: SegmentBytes bounds each segment and replay reads
// across the rotated pieces transparently.
func TestJournalRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalWith(dir, JournalConfig{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := j.Append(0, fmt.Sprintf("d%d", i), map[string]int{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Rotations == 0 {
		t.Error("no rotations despite tiny SegmentBytes")
	}
	names, _ := OSFS.ReadDir(dir)
	if len(names) < 2 {
		t.Fatalf("expected multiple segments, got %v", names)
	}
	got, torn, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || len(got) != 50 {
		t.Fatalf("replay = (%d keys, %d torn), want (50, 0)", len(got), torn)
	}

	// Rotation stays off the per-record path: the same records through
	// aggressively rotating 64 KiB segments may allocate at most 10 % more
	// than through never-rotating ones. Allocation counts are
	// near-deterministic, so "rotation allocates per record" cannot hide.
	rec := map[string]string{"domain": "example.com", "server": "LiteSpeed", "err": strings.Repeat("x", 200)}
	appendAllocs := func(cfg JournalConfig) (allocs float64, rotations int64) {
		allocs = testing.AllocsPerRun(1, func() {
			j, err := OpenJournalWith(t.TempDir(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4000; i++ {
				if err := j.Append(i%4, "w3/v4/example.com", rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			rotations = j.Stats().Rotations
		})
		return allocs, rotations
	}
	plain, _ := appendAllocs(JournalConfig{})
	rotating, rotations := appendAllocs(JournalConfig{SegmentBytes: 64 << 10})
	if rotations < 10 {
		t.Fatalf("only %d rotations; the allocation comparison is vacuous", rotations)
	}
	t.Logf("4000 appends: %.0f allocs plain, %.0f rotating (%d rotations)", plain, rotating, rotations)
	if rotating > plain*1.10 {
		t.Errorf("rotating journal allocates %.0f vs %.0f non-rotating (> 1.10x): rotation allocates on the append path", rotating, plain)
	}
}

// countingFS counts Write and Sync calls per handle, to pin the write and
// fsync policies, and the files opened for reading, to pin what opening a
// journal costs.
type countingFS struct {
	FS
	writes, syncs, opens int
}

func (c *countingFS) Open(path string) (io.ReadCloser, error) {
	c.opens++
	return c.FS.Open(path)
}

func (c *countingFS) OpenAppend(path string) (File, error) {
	f, err := c.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.fs.writes++
	return f.File.Write(p)
}

func (f *countingFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}

// TestJournalSyncPolicy: SyncEvery=1 fsyncs per record; the default syncs
// only on close.
func TestJournalSyncPolicy(t *testing.T) {
	fs := &countingFS{FS: OSFS}
	j, err := OpenJournalWith(t.TempDir(), JournalConfig{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(0, fmt.Sprintf("d%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if fs.syncs != 5 {
		t.Errorf("SyncEvery=1: %d syncs after 5 appends, want 5", fs.syncs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	fs2 := &countingFS{FS: OSFS}
	j2, err := OpenJournalWith(t.TempDir(), JournalConfig{FS: fs2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j2.Append(0, fmt.Sprintf("d%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if fs2.syncs != 0 {
		t.Errorf("default policy: %d syncs before close, want 0", fs2.syncs)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if fs2.syncs != 1 {
		t.Errorf("default policy: %d syncs after close, want 1", fs2.syncs)
	}
}

// flakyFS fails every write until healed — the degraded-then-recovered
// storage shape (disk full, operator clears space).
type flakyFS struct {
	FS
	healed bool
	heal   int // when positive, storage heals after this many failed writes
}

func (f *flakyFS) OpenAppend(path string) (File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

type flakyFile struct {
	File
	fs *flakyFS
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if !f.fs.healed {
		if f.fs.heal > 0 {
			f.fs.heal--
			f.fs.healed = f.fs.heal == 0
		}
		return 0, fmt.Errorf("write: %w", ErrNoSpace)
	}
	return f.File.Write(p)
}

// countedValue counts how often the journal encodes it.
type countedValue struct{ encodes *int }

func (c countedValue) AppendJSON(dst []byte) ([]byte, error) {
	*c.encodes++
	return append(dst, '1'), nil
}

// TestJournalDegradedAndProbe walks the full degraded lifecycle: repeated
// write failures flip the journal to fast-fail, probes keep testing the
// storage, and a successful probe re-enables checkpointing.
func TestJournalDegradedAndProbe(t *testing.T) {
	fs := &flakyFS{FS: OSFS}
	dir := t.TempDir()
	j, err := OpenJournalWith(dir, JournalConfig{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	// degradeAfter consecutive failures trip the breaker-style degrade.
	for i := 0; i < degradeAfter; i++ {
		if err := j.Append(0, "k", i); err == nil {
			t.Fatal("append succeeded on dead storage")
		} else if errors.Is(err, ErrJournalDegraded) {
			t.Fatalf("append %d degraded too early", i)
		}
	}
	if !j.Degraded() {
		t.Fatal("journal not degraded after degradeAfter failures")
	}
	// Degraded appends fail fast without touching storage; every
	// probeEvery-th is a probe that still fails while the disk is dead.
	var probes, fastFails, encodes int
	for i := 0; i < 2*probeEvery; i++ {
		err := j.Append(0, "k", countedValue{&encodes})
		if errors.Is(err, ErrJournalDegraded) {
			fastFails++
		} else if err != nil {
			probes++
		} else {
			t.Fatal("append succeeded on dead storage")
		}
	}
	if probes != 2 || fastFails != 2*probeEvery-2 {
		t.Fatalf("probes=%d fastFails=%d, want 2/%d", probes, fastFails, 2*probeEvery-2)
	}
	if encodes != probes {
		t.Fatalf("%d degraded appends encoded their value %d times, want once per probe (%d): a fast-fail must cost no encode", 2*probeEvery, encodes, probes)
	}
	// Storage recovers: the next probe succeeds and clears degraded.
	fs.healed = true
	var recovered bool
	for i := 0; i < probeEvery && !recovered; i++ {
		recovered = j.Append(0, "recovered", i) == nil
	}
	if !recovered {
		t.Fatal("no probe landed after storage healed")
	}
	if j.Degraded() {
		t.Fatal("journal still degraded after successful probe")
	}
	if err := j.Append(0, "after", 1); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if !((st.Probes >= 3) && st.Skipped >= 2*probeEvery-2 && st.WriteFailures >= 5) {
		t.Errorf("stats = %+v, want probes≥3 skipped≥%d writeFailures≥5", st, 2*probeEvery-2)
	}
	got, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["recovered"]; !ok {
		t.Error("post-recovery record missing from replay")
	}
	if _, ok := got["after"]; !ok {
		t.Error("record after recovery missing from replay")
	}
}

// TestJournalOpenErrRetries: segment-open failures (ENOSPC creating the
// file) fail the append but leave the journal usable once storage returns.
func TestJournalOpenErrRetries(t *testing.T) {
	fs := &stubFaultFS{FS: OSFS, failOpens: 2}
	dir := t.TempDir()
	j, err := OpenJournalWith(dir, JournalConfig{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.Append(0, "k", i); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("append %d = %v, want ErrNoSpace", i, err)
		}
	}
	if err := j.Append(0, "k", 99); err != nil {
		t.Fatalf("append after opens heal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, _ := Replay(dir)
	var v int
	if err := json.Unmarshal(got["k"], &v); err != nil || v != 99 {
		t.Fatalf("k = %s, want 99", got["k"])
	}
}

// TestJournalAckedSurviveChaos: under a mixed storage-fault plan, every
// acked append must be replayable at its last acked value, torn bytes
// notwithstanding — the core crash-safety contract. Degraded mode is on, so
// an append that fails fast with ErrJournalDegraded is simply not acked.
func TestJournalAckedSurviveChaos(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			plan := fsPlan(seed, 0.15, 0.1, 0.15, 0.05)
			fs := NewFaultFS(nil, plan)
			j, err := OpenJournalWith(dir, JournalConfig{
				FS: fs, SegmentBytes: 256, SyncEvery: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			// acked holds each key's last acked value; unacked the values of
			// failed appends issued after that ack. A failed append may still
			// have persisted its line (the fsync, not the write, may be what
			// failed), so replay may legitimately surface it — what it must
			// never do is lose the ack or resurrect anything older.
			acked := map[string]int{}
			unacked := map[string]map[int]bool{}
			var ackCount int
			const n = 400
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("d%d", rng.Intn(40))
				val := rng.Intn(1 << 20)
				if j.Append(rng.Intn(3), key, map[string]int{"n": val}) == nil {
					acked[key] = val
					delete(unacked, key)
					ackCount++
				} else {
					if unacked[key] == nil {
						unacked[key] = map[int]bool{}
					}
					unacked[key][val] = true
				}
			}
			if err := j.Close(); err != nil {
				t.Logf("close under chaos: %v", err)
			}
			injected := plan.Injected(fault.FS, fault.AnyKind)
			if injected == 0 {
				t.Fatal("fault plan injected nothing")
			}
			// Torn prefixes are on disk too, and counted.
			var onDisk int64
			names, _ := OSFS.ReadDir(dir)
			for _, name := range names {
				info, err := os.Stat(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				onDisk += info.Size()
			}
			if st := j.Stats(); st.Bytes != onDisk {
				t.Errorf("Stats().Bytes = %d, the directory holds %d", st.Bytes, onDisk)
			}
			if ackCount*10 < n {
				t.Fatalf("%d of %d appends acked, want at least 10%%", ackCount, n)
			}
			got, torn, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("acked=%d keys=%d torn=%d injected=%d", ackCount, len(acked), torn, injected)
			for key, want := range acked {
				raw, ok := got[key]
				if !ok {
					t.Fatalf("acked key %q lost", key)
				}
				var v struct{ N int }
				if err := json.Unmarshal(raw, &v); err != nil {
					t.Fatalf("key %q = %s: %v", key, raw, err)
				}
				if v.N != want && !unacked[key][v.N] {
					t.Fatalf("key %q = n=%d, want the acked n=%d or a post-ack attempt", key, v.N, want)
				}
			}
		})
	}
}

// TestFaultFSDeterminism: two FaultFS instances with equal plans inject
// the identical fault sequence over the identical operation sequence.
func TestFaultFSDeterminism(t *testing.T) {
	run := func() []string {
		fs := NewFaultFS(nil, fsPlan(7, 0.2, 0.2, 0.2, 0.1))
		dir := t.TempDir()
		var outcomes []string
		var f File
		for i := 0; i < 60; i++ {
			var err error
			switch i % 4 {
			case 0:
				f, err = fs.OpenAppend(filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i)))
			case 1, 2:
				if f != nil {
					_, err = f.Write([]byte(`{"k":"x","v":1}` + "\n"))
				}
			case 3:
				if f != nil {
					err = f.Sync()
					f.Close()
					f = nil
				}
			}
			// Classify rather than stringify: injected errors embed the
			// per-run temp path.
			switch {
			case err == nil:
				outcomes = append(outcomes, "ok")
			case errors.Is(err, ErrNoSpace):
				outcomes = append(outcomes, "nospace")
			case errors.Is(err, ErrSyncFailed):
				outcomes = append(outcomes, "syncfail")
			case errors.Is(err, ErrIO):
				outcomes = append(outcomes, "io")
			default:
				outcomes = append(outcomes, "other")
			}
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged: %q vs %q", i, a[i], b[i])
		}
	}
}

// fsPlan is a storage chaos plan with the given per-operation shares.
func fsPlan(seed int64, shortWrite, writeErr, syncErr, openErr float64) *fault.Plan {
	return fault.New(seed,
		fault.Rule{Site: fault.FS, Kind: fault.ShortWrite, P: shortWrite},
		fault.Rule{Site: fault.FS, Kind: fault.WriteErr, P: writeErr},
		fault.Rule{Site: fault.FS, Kind: fault.SyncErr, P: syncErr},
		fault.Rule{Site: fault.FS, Kind: fault.OpenErr, P: openErr})
}

// TestFaultFSDirectives pins what each fs directive of the fault grammar
// does to the filesystem: which operation fails, with which error, and —
// for a torn write — that a proper prefix reaches the disk.
func TestFaultFSDirectives(t *testing.T) {
	line := []byte(`{"k":"x","v":1}` + "\n")
	for spec, want := range map[string]error{
		"fs.open-err:1": ErrNoSpace, "fs.write-err:1": ErrNoSpace, "fs.short-write:1": ErrIO,
		"fs.sync-err:1":              ErrSyncFailed,
		"fs.write-err:other.jsonl@1": nil, // pinned to another file
	} {
		plan, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		fs := NewFaultFS(nil, plan)
		path := filepath.Join(t.TempDir(), "seg.jsonl")
		// The first failure of open, write, sync is the directive's.
		f, err := fs.OpenAppend(path)
		if err == nil {
			if _, err = f.Write(line); err == nil {
				err = f.Sync()
			}
			f.Close()
		}
		if !errors.Is(err, want) || plan.Injected(fault.FS, fault.AnyKind) > 1 {
			t.Errorf("%s: first error %v after %d faults, want %v after one", spec, err, plan.Injected(fault.FS, fault.AnyKind), want)
		}
		if data, _ := os.ReadFile(path); strings.Contains(spec, "short") && (len(data) == 0 || len(data) >= len(line)) {
			t.Errorf("%s: %d of %d bytes on disk, want a proper prefix", spec, len(data), len(line))
		}
	}
}

// TestJournalCloseError: a close failure is reported (not swallowed) and
// flips the journal degraded, so the caller can raise the gauge.
func TestJournalCloseError(t *testing.T) {
	fs := &countingFS{FS: failCloseFS{OSFS}}
	j, err := OpenJournalWith(t.TempDir(), JournalConfig{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(0, "k", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err == nil {
		t.Fatal("close error swallowed")
	}
	if !j.Degraded() {
		t.Error("journal not degraded after failed close")
	}
}

type failCloseFS struct{ FS }

func (f failCloseFS) OpenAppend(path string) (File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return failCloseFile{file}, nil
}

type failCloseFile struct{ File }

func (f failCloseFile) Close() error {
	f.File.Close()
	return fmt.Errorf("close: %w", ErrIO)
}
