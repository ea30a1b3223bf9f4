package resilience

import (
	"fmt"
	"strings"
)

// CompactStats summarises one compaction pass.
type CompactStats struct {
	// Segments is the number of input segments rewritten; Records the
	// complete records read from them.
	Segments, Records int
	// Kept and Dropped partition the distinct keys: Kept survived into the
	// compacted segment, Dropped failed the retain filter.
	Kept, Dropped int
	// Torn counts torn/corrupt input lines skipped (they carry no acked
	// record, so dropping them loses nothing).
	Torn int
	// Bytes is the size of the compacted segment written.
	Bytes int64
}

// compactName names the compacted output segment for a generation.
func compactName(gen int64) string { return fmt.Sprintf("compact-%06d.jsonl", gen) }

// Compact rewrites the journal at dir down to its last complete record per
// key, preserving each record's original line bytes (and therefore its
// sequence number), so
//
//	replay(compact(J)) == replay(J)
//
// holds exactly — the property TestCompactionEquivalence pins. When retain
// is non-nil, keys it rejects are dropped (the campaign runner uses this
// to prune weeks outside the retention horizon). fs nil means the real
// filesystem.
//
// Compact requires that no Journal is appending to dir concurrently: the
// campaign runner runs it between weeks, after Close. It is crash-safe at
// every step — the compacted segment is staged as a .tmp file (invisible
// to replay), fsynced, then renamed into place before the old segments are
// removed. A torn rename strands only the staging file; a crash between
// rename and removal leaves duplicate records with equal sequence numbers
// and identical values, which replay resolves to the same state.
func Compact(fs FS, dir string, retain func(key string) bool) (CompactStats, error) {
	fs = fsOrOS(fs)
	var cs CompactStats

	// Clear staging files stranded by an earlier crashed or fault-injected
	// compaction; they were never part of the journal.
	names, err := fs.ReadDir(dir)
	if err != nil {
		return cs, fmt.Errorf("resilience: compact: read checkpoint dir: %w", err)
	}
	var segments []string
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, ".tmp"):
			_ = fs.Remove(joinPath(dir, name))
		case strings.HasSuffix(name, ".jsonl"):
			segments = append(segments, name)
		}
	}
	if len(segments) == 0 {
		return cs, nil
	}

	latest, st, err := scanJournal(fs, dir, true)
	if err != nil {
		return cs, fmt.Errorf("resilience: compact: %w", err)
	}
	cs.Segments, cs.Records, cs.Torn = st.segments, st.records, st.torn

	keys := sortedKeys(latest)
	kept := keys[:0]
	for _, k := range keys {
		if retain != nil && !retain(k) {
			cs.Dropped++
			continue
		}
		kept = append(kept, k)
	}
	cs.Kept = len(kept)

	if len(kept) > 0 {
		final := joinPath(dir, compactName(maxSegGen(segments)+1))
		tmp := final + ".tmp"
		f, err := fs.Create(tmp)
		if err != nil {
			return cs, fmt.Errorf("resilience: compact: stage segment: %w", err)
		}
		for _, k := range kept {
			line := latest[k].line
			if _, err := f.Write(line); err != nil {
				f.Close()
				_ = fs.Remove(tmp)
				return cs, fmt.Errorf("resilience: compact: write record: %w", err)
			}
			cs.Bytes += int64(len(line))
		}
		if err := f.Sync(); err != nil {
			f.Close()
			_ = fs.Remove(tmp)
			return cs, fmt.Errorf("resilience: compact: sync segment: %w", err)
		}
		if err := f.Close(); err != nil {
			_ = fs.Remove(tmp)
			return cs, fmt.Errorf("resilience: compact: close segment: %w", err)
		}
		if err := fs.Rename(tmp, final); err != nil {
			// Torn rename: the staging file may or may not survive removal,
			// but either way replay ignores .tmp and the original segments
			// are untouched.
			_ = fs.Remove(tmp)
			return cs, fmt.Errorf("resilience: compact: publish segment: %w", err)
		}
	}

	// The compacted segment is durable (or every key was dropped on
	// purpose); the originals are now redundant.
	for _, name := range segments {
		if err := fs.Remove(joinPath(dir, name)); err != nil {
			// Leftover duplicates are replay-equivalent; report the first
			// failure so the caller can count it, but keep the journal
			// consistent.
			return cs, fmt.Errorf("resilience: compact: remove old segment: %w", err)
		}
	}
	return cs, nil
}
