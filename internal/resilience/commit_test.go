package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"quicspin/internal/fault"
)

// readSegments returns every file in dir by name, with its bytes.
func readSegments(t *testing.T, dir string) map[string]string {
	t.Helper()
	names, err := OSFS.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, name := range names {
		body, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(body)
	}
	return out
}

// commitBatch commits shard's pending batch of n records and reports which
// of them landed, checking that Commit's count and lost indices agree.
func commitBatch(t *testing.T, j *Journal, shard, n int) []bool {
	t.Helper()
	landed, err := j.Commit(shard)
	ok := make([]bool, n)
	for i := range ok {
		ok[i] = true
	}
	lost := 0
	if err != nil {
		var ce *CommitError
		if !errors.As(err, &ce) || len(ce.Lost) == 0 {
			t.Fatalf("Commit error %v names no lost record", err)
		}
		for _, i := range ce.Lost {
			if i < 0 || i >= n || !ok[i] {
				t.Fatalf("Commit of %d records lost %v", n, ce.Lost)
			}
			ok[i] = false
		}
		lost = len(ce.Lost)
	}
	if landed != n-lost {
		t.Fatalf("Commit of %d records = %d landed, %v", n, landed, err)
	}
	return ok
}

// journalRun journals n records to shard 0 of a fresh directory, one Append
// per record when batch is 1 and otherwise Adds committed every batch
// records, and returns the directory, which records landed, the stats and
// the writes issued.
func journalRun(t *testing.T, cfg JournalConfig, n, batch int, record func(i int) (string, any)) (string, []bool, JournalStats, *countingFS) {
	t.Helper()
	faulty := cfg.FS != nil
	fs := &countingFS{FS: fsOrOS(cfg.FS)}
	cfg.FS = fs
	dir := t.TempDir()
	j, err := OpenJournalWith(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	landed := make([]bool, n)
	var pending []int // the records the pending batch holds
	for i := 0; i < n; i++ {
		key, v := record(i)
		if batch == 1 {
			landed[i] = j.Append(0, key, v) == nil
			continue
		}
		if err := j.Add(0, key, v); err == nil {
			pending = append(pending, i)
		} else if !errors.Is(err, ErrJournalDegraded) {
			t.Fatal(err)
		}
		if i%batch == batch-1 || i == n-1 {
			for k, ok := range commitBatch(t, j, 0, len(pending)) {
				landed[pending[k]] = ok
			}
			pending = pending[:0]
		}
	}
	if err := j.Close(); err != nil && !faulty {
		t.Fatal(err)
	}
	return dir, landed, j.Stats(), fs
}

// TestJournalCommitMatchesAppend: records added in batches and committed
// once per batch leave the very segments — names, bytes, rotation points —
// that one Append per record leaves, with one write per segment piece
// instead of one per record; and SyncEvery keeps counting records.
func TestJournalCommitMatchesAppend(t *testing.T) {
	const n, batch = 60, 12
	record := func(i int) (string, any) {
		return fmt.Sprintf("w1/v4/d%d.example", i), map[string]int{"n": i, "pad": i * 7919}
	}
	cfg := JournalConfig{SegmentBytes: 1000, SyncEvery: 4}
	dirA, _, sa, perRecord := journalRun(t, cfg, n, 1, record)
	dirB, _, sb, batched := journalRun(t, cfg, n, batch, record)

	segA, segB := readSegments(t, dirA), readSegments(t, dirB)
	if len(segA) < 4 {
		t.Fatalf("vacuous: %d segments, the test needs several rotations", len(segA))
	}
	if !reflect.DeepEqual(segA, segB) {
		t.Fatalf("batched commits wrote other segments than per-record appends:\n%v\n%v", segA, segB)
	}
	if sa.Appends != n || sb.Appends != n || sa.Bytes != sb.Bytes || sa.Rotations != sb.Rotations {
		t.Errorf("stats differ: per record %+v, batched %+v", sa, sb)
	}
	// A piece ends at a batch end or a rotation: at most one per segment
	// plus one per batch.
	if perRecord.writes != n || batched.writes > len(segB)+(n+batch-1)/batch+1 {
		t.Errorf("writes: %d per record (want %d), %d batched for %d segments", perRecord.writes, n, batched.writes, len(segB))
	}
	if batched.syncs >= perRecord.syncs {
		t.Errorf("SyncEvery 4: %d fsyncs batched, %d per record; a batch write carrying 4 records syncs once", batched.syncs, perRecord.syncs)
	}
}

// seqField matches a record's sequence number.
var seqField = regexp.MustCompile(`"s":[0-9]+`)

// TestJournalCommitFaultsMatchAppend: under one storage-fault plan, batched
// commits lose exactly the records per-record appends lose — a torn or
// failed write costs the record it hits, not the rest of its batch, and a
// degraded journal drops and probes the same records — and leave the same
// segments and counters, in fewer writes. Only sequence numbers differ: a
// batch encodes some records that degrading then drops.
func TestJournalCommitFaultsMatchAppend(t *testing.T) {
	const n, batch = 640, 64
	record := func(i int) (string, any) {
		return fmt.Sprintf("d%d", i), map[string]int{"n": i}
	}
	for seed := int64(1); seed <= 3; seed++ {
		// The README's example shares. With SyncEvery 0, fsyncs fall at the
		// same rotations, and a fault hits the same record, on both sides.
		run := func(batch int) (map[string]string, []bool, JournalStats, int) {
			plan := fsPlan(seed, 0.1, 0.2, 0.1, 0.05)
			cfg := JournalConfig{FS: NewFaultFS(nil, plan), SegmentBytes: 2048}
			dir, landed, st, fs := journalRun(t, cfg, n, batch, record)
			segs := readSegments(t, dir)
			for name, body := range segs {
				segs[name] = seqField.ReplaceAllString(body, `"s":_`)
			}
			return segs, landed, st, fs.writes
		}
		segA, landedA, sa, writesA := run(1)
		segB, landedB, sb, writesB := run(batch)
		var count int
		for _, ok := range landedA {
			if ok {
				count++
			}
		}
		t.Logf("seed %d: %d of %d records landed, %d skipped, %d writes per record, %d batched",
			seed, count, n, sa.Skipped, writesA, writesB)
		if count == 0 || count == n || sa.Skipped == 0 {
			t.Fatalf("vacuous: %d of %d records landed, %d skipped", count, n, sa.Skipped)
		}
		if !reflect.DeepEqual(landedA, landedB) {
			t.Errorf("seed %d: batched commits landed other records than per-record appends", seed)
		}
		if !reflect.DeepEqual(segA, segB) {
			t.Errorf("seed %d: batched commits wrote other segments than per-record appends", seed)
		}
		if sa != sb {
			t.Errorf("seed %d: stats differ: per record %+v, batched %+v", seed, sa, sb)
		}
		if writesB >= writesA {
			t.Errorf("seed %d: %d batched writes, %d per record", seed, writesB, writesA)
		}
	}
}

// TestJournalDegradedBatch: failures count per record write, so a journal
// can degrade part-way through a batch; from there each record is dropped
// or, every probeEvery-th, written as a probe, and a landed probe lets the
// rest of the batch through. Records added while degraded fail fast
// unencoded until one is the probe; those added after it wait for its
// outcome.
func TestJournalDegradedBatch(t *testing.T) {
	// Storage heals after the degrading failures and one failed probe.
	fs := &flakyFS{FS: OSFS, heal: degradeAfter + 1}
	dir := t.TempDir()
	j, err := OpenJournalWith(dir, JournalConfig{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	var encodes, fastFails int
	add := func(prefix string, n int) {
		encodes, fastFails = 0, 0
		for i := 0; i < n; i++ {
			if err := j.Add(0, fmt.Sprintf("%s%d", prefix, i), countedValue{&encodes}); errors.Is(err, ErrJournalDegraded) {
				fastFails++
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	commit := func(wantLanded int, wantLost []int) {
		t.Helper()
		landed, err := j.Commit(0)
		var lost []int
		if ce := (*CommitError)(nil); errors.As(err, &ce) {
			lost = ce.Lost
		}
		if landed != wantLanded || !reflect.DeepEqual(lost, wantLost) || (err == nil) != (wantLost == nil) || errors.Is(err, ErrJournalDegraded) {
			t.Fatalf("Commit = %d, %v; want %d landed and %v lost to a write failure", landed, err, wantLanded, wantLost)
		}
	}
	upTo := func(n int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		return s
	}

	// a0-a2 fail and degrade the journal. Of the records after them every
	// probeEvery-th probes: a66 fails (the last failed write) and a130
	// lands; the others are dropped, and a131-a133 follow a130.
	const n = degradeAfter + 2*probeEvery + 3
	add("a", n)
	commit(4, upTo(n-4))
	if st := j.Stats(); j.Degraded() || st.WriteFailures != degradeAfter+1 || st.Skipped != 2*probeEvery-2 || st.Probes != 2 || st.Appends != 4 {
		t.Fatalf("degraded=%v, stats = %+v; want recovered after %d write failures, %d skipped, 2 probes, 4 appends",
			j.Degraded(), st, degradeAfter+1, 2*probeEvery-2)
	}

	// Dead storage again: degradeAfter failures degrade the journal. b0-b62
	// fail fast unencoded, b63 is the probe, and b64 and b65 wait for it: it
	// fails, so both are dropped.
	fs.healed = false
	for i := 0; i < degradeAfter; i++ {
		if err := j.Append(0, fmt.Sprintf("x%d", i), i); err == nil || errors.Is(err, ErrJournalDegraded) {
			t.Fatalf("append on dead storage: %v", err)
		}
	}
	add("b", probeEvery+2)
	if fastFails != probeEvery-1 || encodes != 3 {
		t.Fatalf("%d degraded adds: %d fast fails, %d encodes; want %d and 3", probeEvery+2, fastFails, encodes, probeEvery-1)
	}
	commit(0, upTo(3))
	// The two dropped waiters ticked the probe counter too: c0-c60 fail
	// fast, c61 probes, c62 and c63 wait for it; storage heals, so all three
	// land.
	add("c", probeEvery)
	if fastFails != probeEvery-3 || encodes != 3 {
		t.Fatalf("%d degraded adds: %d fast fails, %d encodes; want %d and 3", probeEvery, fastFails, encodes, probeEvery-3)
	}
	fs.healed = true
	commit(3, nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a130", "a131", "a132", "a133", "c61", "c62", "c63"}
	if len(got) != len(want) {
		t.Errorf("replay holds %d records, want %v", len(got), want)
	}
	for _, k := range want {
		if got[k] == nil {
			t.Errorf("replay lacks %s", k)
		}
	}
}

// TestJournalCommitSurviveChaos is TestJournalAckedSurviveChaos for batches:
// under the same storage-fault plan, with records added at random and
// committed at random points, every record a Commit reports as landed is
// replayable at its last landed value, or at a value attempted after it.
// Degraded mode is on: a record that fails fast with ErrJournalDegraded, at
// Add or in Commit, has not landed.
func TestJournalCommitSurviveChaos(t *testing.T) {
	var partial int // commits that landed some, not all, of their batch
	for seed := int64(1); seed <= 5; seed++ {
		dir := t.TempDir()
		plan := fsPlan(seed, 0.15, 0.1, 0.15, 0.05)
		j, err := OpenJournalWith(dir, JournalConfig{
			FS: NewFaultFS(nil, plan), SegmentBytes: 256, SyncEvery: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		type kv struct {
			key      string
			val, seq int // seq: the record's place in Add order
		}
		// lastLanded is each key's last record, in Add order, that a Commit
		// reported as landed; history every record added for a key.
		lastLanded := map[string]kv{}
		history := map[string][]kv{}
		pending := map[int][]kv{}
		var landedCount int
		commit := func(shard int) {
			batch := pending[shard]
			ok := commitBatch(t, j, shard, len(batch))
			var n int
			for i, r := range batch {
				if !ok[i] {
					continue
				}
				n++
				if last, seen := lastLanded[r.key]; !seen || r.seq > last.seq {
					lastLanded[r.key] = r
				}
			}
			if n > 0 && n < len(batch) {
				partial++
			}
			landedCount += n
			pending[shard] = pending[shard][:0]
		}
		const n = 400
		for i := 0; i < n; i++ {
			shard := rng.Intn(3)
			if rng.Intn(10) == 0 {
				commit(shard)
			}
			r := kv{fmt.Sprintf("d%d", rng.Intn(40)), rng.Intn(1 << 20), i}
			if err := j.Add(shard, r.key, map[string]int{"n": r.val}); errors.Is(err, ErrJournalDegraded) {
				continue // failed fast: never written
			} else if err != nil {
				t.Fatalf("seed %d: Add: %v", seed, err)
			}
			pending[shard] = append(pending[shard], r)
			history[r.key] = append(history[r.key], r)
		}
		for shard := 0; shard < 3; shard++ {
			commit(shard)
		}
		if err := j.Close(); err != nil {
			t.Logf("seed %d: close under chaos: %v", seed, err)
		}
		if plan.Injected(fault.FS, fault.AnyKind) == 0 {
			t.Fatalf("seed %d: fault plan injected nothing", seed)
		}
		if landedCount*10 < n {
			t.Fatalf("seed %d: %d of %d records landed, want at least 10%%", seed, landedCount, n)
		}
		var onDisk int64
		for _, body := range readSegments(t, dir) {
			onDisk += int64(len(body))
		}
		if st := j.Stats(); st.Bytes != onDisk || st.Appends != int64(landedCount) {
			t.Errorf("seed %d: Stats() = %+v; the directory holds %d bytes and %d records landed", seed, st, onDisk, landedCount)
		}
		got, torn, err := Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: landed=%d keys=%d torn=%d injected=%d", seed, landedCount, len(lastLanded), torn, plan.Injected(fault.FS, fault.AnyKind))
		for key, last := range lastLanded {
			raw, ok := got[key]
			if !ok {
				t.Fatalf("seed %d: landed key %q lost", seed, key)
			}
			var v struct{ N int }
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Fatalf("seed %d: key %q = %s: %v", seed, key, raw, err)
			}
			// A record that did not land may still be on disk (the fsync
			// after its write is what failed), so replay may surface a
			// later attempt — never anything added before the last landed
			// record.
			ok = false
			for _, r := range history[key] {
				ok = ok || (r.seq >= last.seq && r.val == v.N)
			}
			if !ok {
				t.Fatalf("seed %d: key %q = n=%d, want the landed n=%d or a later attempt", seed, key, v.N, last.val)
			}
		}
	}
	if partial == 0 {
		t.Error("vacuous: no commit landed part of its batch")
	}
}
