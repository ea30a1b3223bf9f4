package resilience

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Journal is a crash-safe, append-only checkpoint log sharded across one
// JSONL segment per writer. Each line is a self-contained
// {"k":key,"s":seq,"v":value} record. A writer Adds records to a pending
// batch and Commits it with one Write per committed batch, so a tear loses
// a suffix of whole records plus at most one torn line; Replay skips torn
// lines and the scanner simply rescans those domains deterministically.
// Append is a batch of one.
//
// Storage-fault hardening (the properties the chaos suite pins):
//
//   - Every record carries a sequence number, so replay resolves duplicate
//     keys — across segments, shards and process restarts — to the last
//     complete record deterministically, regardless of directory iteration
//     order. A handle's numbers are its opening generation (one above every
//     generation named in the directory) shifted left seqGenShift bits, plus
//     a per-handle counter: they rise within a handle and sit above every
//     number an earlier handle or a rotation can hold, without reading a
//     single record. The one bound is 2³² records per handle.
//   - A journal instance only ever appends to segments it created itself
//     (each open starts a fresh generation), so existing journal bytes are
//     never touched, let alone corrupted, by later runs.
//   - A failed write seals its segment and costs the one record it tore:
//     the rest of the batch goes on into a fresh segment, so records
//     landed after a torn write can never be glued to the torn bytes and
//     lost.
//   - After degradeAfter (3) consecutive failed record writes the journal
//     flips to a degraded state: a record met while degraded fails fast
//     with ErrJournalDegraded (the campaign keeps scanning without
//     checkpoints), while every probeEvery-th (64th) is written for real to
//     probe whether storage recovered.
//
// Segments also rotate at SegmentBytes. Nothing ever rewrites a segment:
// the journal only grows, and a directory is retired whole — the campaign
// runner gives each week's scans directories of their own and removes the
// ones past its retention horizon.
type Journal struct {
	dir string
	cfg JournalConfig
	fs  FS

	mu     sync.Mutex                           // serialises writer creation and Close
	shards atomic.Pointer[map[int]*shardWriter] // copy-on-write: Add and Commit read it without j.mu

	seq     atomic.Int64 // last sequence number issued
	nextGen atomic.Int64 // next segment generation
	count   atomic.Int64 // records appended through this handle

	degraded    atomic.Bool
	consecFails atomic.Int64
	probeTick   atomic.Int64

	stats struct {
		appends, skipped            atomic.Int64
		writeFailures, syncFailures atomic.Int64
		rotations, probes           atomic.Int64
		bytes                       atomic.Int64
	}
}

// JournalConfig tunes the journal's storage behaviour. The zero value is
// the real filesystem, no rotation and fsync only on close. Degraded mode
// is the same for every journal: it starts after degradeAfter (3)
// consecutive failed record writes and probes every probeEvery-th (64th)
// record met while degraded.
type JournalConfig struct {
	// FS is the filesystem implementation; nil means the real one. Tests
	// inject a FaultFS here to chaos-test every journal code path.
	FS FS
	// SyncEvery is the fsync cadence per shard writer: the segment is
	// fsynced after the write that carries the N-th unsynced record. Zero
	// syncs only on rotation and close (fast, loses at most a page cache on
	// power loss); 1 fsyncs every write, so every record is fsynced before
	// its Commit returns and the scanner delivers its result.
	SyncEvery int
	// SegmentBytes rotates a shard's segment once it exceeds this size.
	// Zero disables size-based rotation (segments still rotate per open
	// and after write failures).
	SegmentBytes int64
}

const (
	// degradeAfter is the number of consecutive failed record writes
	// before the journal disables itself (ErrJournalDegraded fast-fails).
	degradeAfter = 3
	// probeEvery is how often a degraded journal risks a real write to
	// detect recovery: every N-th record met while degraded.
	probeEvery = 64
)

// ErrJournalDegraded reports that the journal has disabled itself after
// repeated storage failures. The campaign is expected to keep scanning —
// checkpointing is an optimisation, never a correctness requirement — and
// the scanner surfaces the state through the scan_checkpoint_degraded
// gauge and /readyz.
var ErrJournalDegraded = errors.New("resilience: checkpoint journal degraded (storage failures); scanning continues without checkpoints")

// shardWriter is one worker's current segment and pending batch.
type shardWriter struct {
	mu       sync.Mutex
	f        File
	size     int64
	unsynced int
	broken   bool // a write failed: never append to this segment again
	// pending holds the batch's encoded records back to back, and recs[i]
	// says where record i ends in it; both are reused across batches.
	pending []byte
	recs    []pendingRecord
	// probing: the pending batch holds a probe, so the records added after
	// it wait for the probe's outcome instead of failing fast.
	probing bool
}

// pendingRecord is one record of a pending batch.
type pendingRecord struct {
	end   int  // offset just past the record's newline in pending
	probe bool // Add admitted it while degraded: it is a recovery probe
}

// CommitError reports a Commit in which some records did not land. Lost
// holds their indices in the batch, in Add order; Err is the first storage
// error, or ErrJournalDegraded when every lost record was dropped because
// the journal was degraded.
type CommitError struct {
	Lost []int
	Err  error
}

func (e *CommitError) Error() string {
	return fmt.Sprintf("%d checkpoint records not landed: %v", len(e.Lost), e.Err)
}

func (e *CommitError) Unwrap() error { return e.Err }

type journalRecord struct {
	K string          `json:"k"`
	S int64           `json:"s,omitempty"`
	V json.RawMessage `json:"v"`
}

// seqGenShift is where a handle's opening generation sits in the sequence
// numbers it issues; the bits below count the handle's records.
const seqGenShift = 32

// OpenJournalWith creates (or reuses) dir and returns a journal that
// appends to fresh segment files inside it. Opening reads the directory's
// file names and no record: the handle's generation is one above the
// highest generation any segment name carries, and its sequence numbers
// are generation<<32 + n, so they start above every number already in the
// directory — the invariant replay's last-complete-wins resolution rests
// on. Journals written before numbers carried a generation (plain counters
// below 2³², or no number at all) sit below every generation-prefixed one.
func OpenJournalWith(dir string, cfg JournalConfig) (*Journal, error) {
	fs := fsOrOS(cfg.FS)
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("resilience: create checkpoint dir: %w", err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resilience: read checkpoint dir: %w", err)
	}
	j := &Journal{dir: dir, cfg: cfg, fs: fs}
	j.shards.Store(&map[int]*shardWriter{})
	gen := maxSegGen(names) + 1
	j.seq.Store(gen << seqGenShift)
	j.nextGen.Store(gen)
	return j, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// segmentName names shard's segment of the given generation.
func segmentName(shard int, gen int64) string {
	return fmt.Sprintf("shard-%03d-%06d.jsonl", shard, gen)
}

// segGen extracts the generation from a segment file name; legacy
// (ungenerated) segments and foreign files report 0.
func segGen(name string) int64 {
	base := strings.TrimSuffix(name, ".jsonl")
	if base == name {
		return 0
	}
	i := strings.LastIndexByte(base, '-')
	if i < 0 {
		return 0
	}
	gen, err := strconv.ParseInt(base[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return gen
}

// maxSegGen returns the highest generation among the segment names.
func maxSegGen(names []string) int64 {
	var gen int64
	for _, name := range names {
		gen = max(gen, segGen(name))
	}
	return gen
}

// jsonAppender is a value that encodes itself as JSON onto a buffer, the
// bytes json.Marshal would produce (scanner.DomainResult does).
type jsonAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// writer returns shard's writer, creating it on first use. The lookup takes
// no lock; creation copies the map.
func (j *Journal) writer(shard int) *shardWriter {
	if w := (*j.shards.Load())[shard]; w != nil {
		return w
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	old := *j.shards.Load()
	if w := old[shard]; w != nil {
		return w
	}
	next := make(map[int]*shardWriter, len(old)+1)
	for k, w := range old {
		next[k] = w
	}
	w := &shardWriter{}
	next[shard] = w
	j.shards.Store(&next)
	return w
}

// Add encodes one key/value record into shard's pending batch, in one pass
// — a value with an AppendJSON method writes itself, any other goes through
// json.Marshal — and gives it the next sequence number. Nothing reaches
// storage until Commit, so v may change or be recycled as soon as Add
// returns. While the journal is degraded, Add fails fast with
// ErrJournalDegraded, encoding nothing, unless the record is the periodic
// probe; the records added after a probe are kept for Commit, which writes
// them if the probe lands and treats them as met while degraded if not.
func (j *Journal) Add(shard int, key string, v any) error {
	w := j.writer(shard)
	// Shards are written by a single worker each; the per-writer mutex
	// only guards against a commit racing a close.
	w.mu.Lock()
	defer w.mu.Unlock()
	probe := !w.probing && j.degraded.Load()
	if probe && !j.admit() {
		return ErrJournalDegraded
	}
	from := len(w.pending)
	line, err := appendRecord(w.pending, key, j.seq.Add(1), v)
	if err != nil {
		w.pending = line[:from]
		return err
	}
	w.pending, w.recs = line, append(w.recs, pendingRecord{end: len(line), probe: probe})
	w.probing = w.probing || probe
	return nil
}

// admit decides the fate of one record met while the journal is degraded:
// every probeEvery-th is written to probe whether storage recovered, and
// the others are dropped.
func (j *Journal) admit() bool {
	if j.probeTick.Add(1)%probeEvery != 0 {
		j.stats.skipped.Add(1)
		return false
	}
	j.stats.probes.Add(1)
	return true
}

// Commit hands shard's pending batch to its segment, one Write for the
// records that fit it, and returns how many records landed. A batch that
// would push the segment past SegmentBytes is split at a record boundary,
// and the segment rotates between the pieces. A failed write, open or fsync
// costs the record it hit (an fsync, every record of the write it followed);
// the segment is sealed and the rest of the batch goes on into a fresh one,
// just as the next one-record Append would. Failures count one each towards
// degradeAfter; once the journal is degraded, the batch's remaining records
// are dropped but for the periodic probe, and a landed probe clears the
// state. Unless every record landed, the error is a *CommitError naming the
// lost records.
func (j *Journal) Commit(shard int) (int, error) {
	w := j.writer(shard)
	w.mu.Lock()
	defer w.mu.Unlock()
	return j.commitLocked(w, shard)
}

// Append journals one record: Add and Commit, one write per record. Its
// error is the one the record's write, open or fsync returned, or
// ErrJournalDegraded.
func (j *Journal) Append(shard int, key string, v any) error {
	err := j.Add(shard, key, v)
	if _, cerr := j.Commit(shard); err == nil {
		err = cerr
	}
	if ce, ok := err.(*CommitError); ok {
		err = ce.Err
	}
	return err
}

// appendRecord appends the line {"k":key,"s":seq,"v":value}\n to dst.
func appendRecord(dst []byte, key string, seq int64, v any) ([]byte, error) {
	dst = append(dst, `{"k":`...)
	dst = AppendJSONString(dst, key)
	dst = append(dst, `,"s":`...)
	dst = strconv.AppendInt(dst, seq, 10)
	dst = append(dst, `,"v":`...)
	if a, ok := v.(jsonAppender); ok {
		var err error
		if dst, err = a.AppendJSON(dst); err != nil {
			return dst, fmt.Errorf("resilience: encode checkpoint record: %w", err)
		}
	} else {
		raw, err := json.Marshal(v)
		if err != nil {
			return dst, fmt.Errorf("resilience: marshal checkpoint record: %w", err)
		}
		dst = append(dst, raw...)
	}
	return append(dst, '}', '\n'), nil
}

// commitLocked is Commit: it writes w's pending records in as few pieces
// as SegmentBytes and failures allow, rotating first when the segment is
// missing, sealed by an earlier failure, or full. Caller holds w.mu.
func (j *Journal) commitLocked(w *shardWriter, shard int) (int, error) {
	var (
		landed int
		lost   []int
		first  error // the first storage error
	)
	fail := func(i int, err error) {
		lost = append(lost, i)
		if first == nil {
			first = err
		}
		j.stats.writeFailures.Add(1)
		if j.consecFails.Add(1) >= degradeAfter {
			j.degraded.Store(true)
		}
	}
	land := func(n int) {
		landed += n
		j.consecFails.Store(0)
		if j.degraded.CompareAndSwap(true, false) {
			// A probe landed: storage recovered, checkpointing resumes.
			j.probeTick.Store(0)
		}
	}
	limit := j.cfg.SegmentBytes
	for i := 0; i < len(w.recs); {
		from := 0 // where record i starts in w.pending
		if i > 0 {
			from = w.recs[i-1].end
		}
		// While degraded, records go one at a time: each is a probe or is
		// dropped.
		degraded := j.degraded.Load()
		if degraded && !w.recs[i].probe && !j.admit() {
			lost = append(lost, i)
			i++
			continue
		}
		if w.f == nil || w.broken || (limit > 0 && w.size > 0 && w.size+int64(w.recs[i].end-from) > limit) {
			if err := j.rotateLocked(w, shard); err != nil {
				fail(i, err)
				i++
				continue
			}
		}
		// The piece: records i..k-1, as many as fit the segment, and always
		// at least one.
		k := i + 1
		for ; !degraded && k < len(w.recs) && (limit <= 0 || w.size+int64(w.recs[k].end-from) <= limit); k++ {
		}
		piece := w.pending[from:w.recs[k-1].end]
		n, err := w.f.Write(piece)
		j.stats.bytes.Add(int64(n))
		if err != nil {
			// The tail of this segment may now hold torn bytes; seal it so the
			// next record lands in a fresh segment and stays replayable. The
			// records wholly before the failure landed; the one it hit is lost.
			w.broken = true
			whole := min(bytes.Count(piece[:n], []byte{'\n'}), k-i-1)
			if whole > 0 {
				land(whole)
			}
			fail(i+whole, fmt.Errorf("resilience: append checkpoint records: %w", err))
			i += whole + 1
			continue
		}
		w.size += int64(len(piece))
		w.unsynced += k - i
		if j.cfg.SyncEvery > 0 && w.unsynced >= j.cfg.SyncEvery {
			if err := w.f.Sync(); err != nil {
				j.stats.syncFailures.Add(1)
				w.broken = true
				for r := i; r < k-1; r++ {
					lost = append(lost, r)
				}
				// Every record of the write is lost; the failure counts once
				// towards degradeAfter.
				j.stats.writeFailures.Add(int64(k - 1 - i))
				fail(k-1, fmt.Errorf("resilience: sync checkpoint segment: %w", err))
				i = k
				continue
			}
			w.unsynced = 0
		}
		land(k - i)
		i = k
	}
	w.pending, w.recs, w.probing = w.pending[:0], w.recs[:0], false
	j.stats.appends.Add(int64(landed))
	j.count.Add(int64(landed))
	if lost == nil {
		return landed, nil
	}
	if first == nil {
		first = ErrJournalDegraded
	}
	return landed, &CommitError{Lost: lost, Err: first}
}

// rotateLocked seals w's current segment (sync + close, best effort when
// the segment is already broken) and opens a fresh one. Caller holds w.mu.
func (j *Journal) rotateLocked(w *shardWriter, shard int) error {
	if w.f != nil {
		if !w.broken && w.unsynced > 0 {
			if err := w.f.Sync(); err != nil {
				j.stats.syncFailures.Add(1)
			}
		}
		_ = w.f.Close()
		w.f = nil
		j.stats.rotations.Add(1)
	}
	gen := j.nextGen.Add(1) - 1
	f, err := j.fs.OpenAppend(joinPath(j.dir, segmentName(shard, gen)))
	if err != nil {
		return fmt.Errorf("resilience: open checkpoint segment: %w", err)
	}
	w.f, w.size, w.unsynced, w.broken = f, 0, 0, false
	return nil
}

// Count returns the number of records appended through this handle (not
// counting records already on disk from a previous run).
func (j *Journal) Count() int64 { return j.count.Load() }

// Degraded reports whether the journal has disabled itself after repeated
// storage failures (appends fail fast; probes may re-enable it).
func (j *Journal) Degraded() bool { return j.degraded.Load() }

// JournalStats is a point-in-time snapshot of the journal's storage
// counters, surfaced through the scanner's telemetry gauges.
type JournalStats struct {
	// Appends counts records durably handed to the filesystem; Skipped
	// counts records Add fast-failed while degraded.
	Appends, Skipped int64
	// WriteFailures counts records lost to a failed write, open or fsync;
	// SyncFailures counts failed fsyncs; Rotations counts segment
	// rollovers; Probes counts degraded-mode recovery attempts.
	WriteFailures, SyncFailures int64
	Rotations, Probes           int64
	// Bytes counts the bytes handed to the filesystem through this handle,
	// the accepted part of a failed write included.
	Bytes int64
	// Degraded is the current disabled-with-alert state.
	Degraded bool
}

// Stats snapshots the journal's storage counters.
func (j *Journal) Stats() JournalStats {
	return JournalStats{
		Appends:       j.stats.appends.Load(),
		Skipped:       j.stats.skipped.Load(),
		WriteFailures: j.stats.writeFailures.Load(),
		SyncFailures:  j.stats.syncFailures.Load(),
		Rotations:     j.stats.rotations.Load(),
		Probes:        j.stats.probes.Load(),
		Bytes:         j.stats.bytes.Load(),
		Degraded:      j.degraded.Load(),
	}
}

// Close commits every pending batch, then syncs and closes every open shard
// segment. The first error is returned — callers are expected to propagate
// it into checkpoint_errors_total and the degraded state rather than
// log-and-drop: a failed close means the tail of the journal may not be
// durable.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var firstErr error
	for shard, w := range *j.shards.Load() {
		w.mu.Lock()
		if _, err := j.commitLocked(w, shard); err != nil && !errors.Is(err, ErrJournalDegraded) && firstErr == nil {
			firstErr = err
		}
		if w.f != nil {
			if !w.broken && w.unsynced > 0 {
				if err := w.f.Sync(); err != nil && firstErr == nil {
					j.stats.syncFailures.Add(1)
					firstErr = fmt.Errorf("resilience: sync checkpoint segment: %w", err)
				}
			}
			if err := w.f.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("resilience: close checkpoint segment: %w", err)
			}
			w.f = nil
		}
		w.mu.Unlock()
	}
	j.shards.Store(&map[int]*shardWriter{})
	if firstErr != nil {
		j.degraded.Store(true)
	}
	return firstErr
}

// segRecord is one key's winning record during a journal scan.
type segRecord struct {
	seq  int64
	file int // index into the sorted segment list (legacy tie-break)
	val  json.RawMessage
}

type scanStats struct {
	torn     int
	segments int
	records  int
}

// scanJournal reads every .jsonl segment in dir (sorted by name) and
// resolves the last complete record per key: highest sequence number wins;
// sequence ties — legacy records without one — fall back to (file, line)
// order over the sorted names, which is deterministic regardless of
// directory iteration order. Torn or corrupt lines anywhere in a segment
// (not just the tail) are skipped and counted.
func scanJournal(fs FS, dir string) (map[string]*segRecord, scanStats, error) {
	var st scanStats
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, st, fmt.Errorf("read checkpoint dir: %w", err)
	}
	out := map[string]*segRecord{}
	for _, name := range names {
		if !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		fileIdx := st.segments
		st.segments++
		f, err := fs.Open(joinPath(dir, name))
		if err != nil {
			return nil, st, fmt.Errorf("open checkpoint segment: %w", err)
		}
		r := bufio.NewReaderSize(f, 1<<16)
		for {
			line, err := r.ReadBytes('\n')
			complete := err == nil
			if len(line) > 0 {
				var rec journalRecord
				if complete && json.Unmarshal(line, &rec) == nil && rec.K != "" {
					st.records++
					prev := out[rec.K]
					// Last complete record wins: higher seq, or — for
					// legacy seq-less ties — later (file, line) position.
					if prev == nil || rec.S > prev.seq || (rec.S == prev.seq && fileIdx >= prev.file) {
						out[rec.K] = &segRecord{seq: rec.S, file: fileIdx, val: rec.V}
					}
				} else {
					// Torn write (no trailing newline, or glued partial
					// bytes mid-segment) or corrupt line: drop it; the
					// caller rescans the domain deterministically.
					st.torn++
				}
			}
			if err != nil {
				if err != io.EOF {
					f.Close()
					return nil, st, fmt.Errorf("read checkpoint segment: %w", err)
				}
				break
			}
		}
		f.Close()
	}
	return out, st, nil
}

// Replay reads every segment in dir and returns the last complete record
// per key plus the number of torn/unparseable lines skipped. A missing
// directory is not an error — it replays to an empty map. Duplicate keys
// resolve deterministically (see scanJournal) no matter how the records
// are spread across shard segments.
func Replay(dir string) (map[string]json.RawMessage, int, error) {
	return ReplayFS(nil, dir)
}

// ReplayFS is Replay through an injected filesystem (nil = the real one).
func ReplayFS(fs FS, dir string) (map[string]json.RawMessage, int, error) {
	latest, st, err := scanJournal(fsOrOS(fs), dir)
	if err != nil {
		return nil, 0, fmt.Errorf("resilience: %w", err)
	}
	out := make(map[string]json.RawMessage, len(latest))
	for k, rec := range latest {
		out[k] = rec.val
	}
	return out, st.torn, nil
}
