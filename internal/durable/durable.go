// Package durable is the crash-durability layer under the serving tier: a
// write-ahead journal of accepted requests plus periodic snapshots of the
// in-memory caches, so a daemon that dies — SIGKILL included — restarts
// with warm state and zero lost accepted work.
//
// The package is deliberately payload-agnostic: records are opaque byte
// slices (the serving layer encodes them with the canonical binary graph
// codec), framed as length-prefixed CRC32C records (record.go) in
// append-only journal segments (journal.go) and atomically-renamed
// snapshot files (snapshot.go). Three properties carry the crash
// invariant:
//
//   - an Append reaches the OS page cache before it returns, so a killed
//     process loses nothing it acknowledged; group fsync (a background
//     ticker, never the request path) bounds the exposure to power loss;
//   - a snapshot rotates the journal first and only truncates segments
//     whose every record was Applied before the rotation — such a
//     record's effects were published to the caller's state before the
//     snapshot scan began, so the snapshot strictly covers the truncated
//     records;
//   - recovery replays every segment still on disk in order, tolerates a
//     torn or corrupt tail by truncating back to the last CRC-valid
//     record, and refuses to boot only on a directory written in another
//     format version (ErrFormatVersion), which it leaves untouched.
//
// Format version 2 (journal and snapshot) is the first whose records key
// graphs by the chunked fingerprint (graph.Fingerprint, format v2); the
// fingerprints a version-1 directory stores name no graph this build can
// key, so such a directory is refused rather than re-keyed.
//
// All I/O goes through the FS interface; faultnet.FS substitutes a
// deterministic fault-injecting implementation (short writes, fsync
// errors, corrupt bytes) for the recovery test suite.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultFsyncInterval is the default journal group-commit interval.
const DefaultFsyncInterval = 100 * time.Millisecond

// Options configures Open.
type Options struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// FS is the filesystem implementation (nil = the operating system).
	FS FS
	// FsyncInterval is the journal group-commit interval: positive means
	// a background fsync every interval, zero means DefaultFsyncInterval,
	// negative means a synchronous fsync on every append.
	FsyncInterval time.Duration
	// Logf, when non-nil, receives recovery and background diagnostics.
	Logf func(format string, args ...any)
}

// Recovery is what Open found on disk: the latest valid snapshot's
// records, the journal tail to replay after them, and the damage report.
type Recovery struct {
	// SnapshotSeq is the loaded snapshot's sequence number (0 = none).
	SnapshotSeq uint64
	// SnapshotRecords are the loaded snapshot's records, in write order.
	SnapshotRecords [][]byte
	// JournalRecords are the replayed journal records, oldest first.
	JournalRecords [][]byte
	// SegmentsScanned counts journal segments replayed.
	SegmentsScanned int
	// SegmentsSkipped counts unreadable segment files ignored.
	SegmentsSkipped int
	// DroppedBytes counts torn/corrupt journal bytes discarded.
	DroppedBytes int64
	// TailTruncated reports that the newest segment's torn tail was cut
	// back to its last valid record.
	TailTruncated bool
	// InvalidSnapshots counts snapshot files that failed validation and
	// were passed over.
	InvalidSnapshots int
}

// Stats is a point-in-time snapshot of the store's counters, feeding the
// durability section of /v1/stats.
type Stats struct {
	// JournalSeq is the active segment's sequence number.
	JournalSeq uint64
	// JournalSegments is the number of on-disk segments (frozen + active).
	JournalSegments int
	// JournalRecords counts records appended since Open.
	JournalRecords uint64
	// JournalBytes counts framed bytes appended since Open.
	JournalBytes uint64
	// WriteErrors counts failed journal writes, closes and removals.
	WriteErrors uint64
	// FsyncErrors counts failed fsyncs (journal and directory).
	FsyncErrors uint64
	// LastFsync is the time of the last successful journal fsync.
	LastFsync time.Time
	// SnapshotSeq is the newest committed snapshot's sequence number.
	SnapshotSeq uint64
	// SnapshotsWritten counts snapshots committed since Open.
	SnapshotsWritten uint64
	// SnapshotErrors counts snapshot attempts that failed.
	SnapshotErrors uint64
	// LastSnapshot is the commit time of the newest snapshot.
	LastSnapshot time.Time
}

// Store is an open durability layer: the journal accepting appends plus
// the snapshot machinery. It implements the serving layer's Journal
// interface (Append/Applied). Open recovers existing state; Close fsyncs
// and stops the background group-commit loop.
type Store struct {
	opts Options
	fsys FS
	j    *journal

	// snapMu serializes snapshots (the periodic loop vs. the drain-time
	// final snapshot) and guards snapSeq.
	snapMu  sync.Mutex
	snapSeq uint64

	snapsWritten atomic.Uint64
	snapErrs     atomic.Uint64
	lastSnap     atomic.Int64 // unix nanos; 0 = no snapshot this run

	stopSync chan struct{}
	syncDone chan struct{}
	closed   atomic.Bool
}

// logf forwards to the configured logger, if any.
func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// ErrFormatVersion is returned by Open when the data directory holds a
// journal segment or snapshot whose header is well formed but of another
// format version. Open then changes nothing on disk.
var ErrFormatVersion = errors.New("durable: data directory of another format version")

// checkVersion fails with ErrFormatVersion when the file at path starts
// with magic and a version other than want. A file too short for the
// header, unreadable or of a foreign magic is left to the loaders, which
// pass it over as damaged.
func checkVersion(fsys FS, path string, magic uint32, want uint16) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil
	}
	defer func() { _ = f.Close() }()
	var hdr [6]byte // magic u32 | version u16, as segments and snapshots begin
	if _, err := io.ReadFull(f, hdr[:]); err != nil || binary.LittleEndian.Uint32(hdr[:]) != magic {
		return nil
	}
	if got := binary.LittleEndian.Uint16(hdr[4:]); got != want {
		return fmt.Errorf("%w: %s is version %d, this build reads version %d", ErrFormatVersion, path, got, want)
	}
	return nil
}

// Open recovers the durable state in opts.Dir — latest valid snapshot,
// then every journal segment still on disk, truncating a torn tail — and
// returns the store ready for appends on a fresh segment. Recovery never
// fails boot on damaged data: torn tails are truncated, corrupt snapshots
// are passed over, unreadable segments are skipped, and the damage is
// reported in Recovery. A segment or snapshot of another format version is
// not damage: Open returns ErrFormatVersion before it writes, truncates or
// creates anything.
func Open(opts Options) (*Store, *Recovery, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("durable: no data directory")
	}
	if opts.FS == nil {
		opts.FS = OS{}
	}
	syncEvery := opts.FsyncInterval < 0
	if opts.FsyncInterval == 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	fsys := opts.FS
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: mkdir %s: %w", opts.Dir, err)
	}
	names, err := fsys.ReadDir(opts.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: list %s: %w", opts.Dir, err)
	}

	var segs, snaps []uint64
	for _, name := range names {
		path := filepath.Join(opts.Dir, name)
		if seq, ok := parseSegName(name); ok {
			segs = append(segs, seq)
			err = checkVersion(fsys, path, journalMagic, journalVersion)
		} else if seq, ok := parseSnapName(name); ok {
			snaps = append(snaps, seq)
			err = checkVersion(fsys, path, snapMagic, snapVersion)
		}
		if err != nil {
			return nil, nil, err
		}
	}

	rec := &Recovery{}
	s := &Store{opts: opts, fsys: fsys}

	// Newest snapshot that validates end to end wins; invalid ones are
	// passed over (and left on disk — the next successful snapshot's
	// cleanup removes them).
	for i := len(snaps) - 1; i >= 0; i-- {
		snap, lerr := loadSnapshot(fsys, filepath.Join(opts.Dir, snapName(snaps[i])))
		if lerr != nil {
			rec.InvalidSnapshots++
			s.logf("durable: snapshot %d invalid: %v", snaps[i], lerr)
			continue
		}
		rec.SnapshotSeq = snap.seq
		rec.SnapshotRecords = snap.records
		s.snapSeq = snap.seq
		break
	}
	// Never reuse a sequence number that exists on disk — even an invalid
	// snapshot's; the next snapshot must land in a fresh file.
	if len(snaps) > 0 && snaps[len(snaps)-1] > s.snapSeq {
		s.snapSeq = snaps[len(snaps)-1]
	}

	// Replay every segment still on disk, oldest first. Segments the
	// snapshot already covers were deleted at its commit; anything still
	// present either post-dates the snapshot barrier or was blocked from
	// truncation by in-flight records at the time — replaying it again is
	// idempotent for the caller (records key into caches).
	maxSeg := uint64(0)
	for i, seq := range segs {
		if seq > maxSeg {
			maxSeg = seq
		}
		res := scanSegment(fsys, filepath.Join(opts.Dir, segName(seq)), i == len(segs)-1)
		if res.skipped {
			rec.SegmentsSkipped++
			s.logf("durable: segment %d unreadable, skipped", seq)
			continue
		}
		rec.SegmentsScanned++
		rec.JournalRecords = append(rec.JournalRecords, res.records...)
		rec.DroppedBytes += res.droppedBytes
		if res.truncated {
			rec.TailTruncated = true
		}
		if res.droppedBytes > 0 {
			s.logf("durable: segment %d: dropped %d undecodable tail bytes after %d records",
				seq, res.droppedBytes, len(res.records))
		}
	}

	j, err := openJournal(fsys, opts.Dir, maxSeg+1, segs, syncEvery)
	if err != nil {
		return nil, nil, err
	}
	s.j = j
	if err := fsys.SyncDir(opts.Dir); err != nil {
		j.syncErrs.Add(1)
	}

	if !syncEvery {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop(opts.FsyncInterval)
	}
	return s, rec, nil
}

// syncLoop is the journal's group-commit ticker.
func (s *Store) syncLoop(interval time.Duration) {
	defer close(s.syncDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.j.sync(); err != nil && err != ErrClosed {
				s.logf("durable: group fsync: %v", err)
			}
		case <-s.stopSync:
			return
		}
	}
}

// Append journals one record, returning the token to pass to Applied once
// the record's effects are published in memory. The record is in the OS
// page cache when Append returns (SIGKILL-safe); stable-storage
// durability follows at the next group fsync. A failed write poisons the
// current segment; Append rotates to a fresh one and retries once, so a
// single bad write (a full disk coming and going, an injected fault)
// costs one record at most.
func (s *Store) Append(payload []byte) (uint64, error) {
	seg, err := s.j.append(payload)
	if err == nil {
		return seg, nil
	}
	if s.closed.Load() {
		return 0, err
	}
	if _, _, rerr := s.j.rotate(); rerr != nil {
		return 0, err
	}
	return s.j.append(payload)
}

// Applied marks one record of segment seg (the token Append returned) as
// applied: its effects are visible to any snapshot scan that starts
// later, so the segment becomes eligible for truncation.
func (s *Store) Applied(seg uint64) { s.j.applied(seg) }

// Snapshot writes one snapshot: the journal rotates (freezing the current
// segment and establishing the barrier), fill streams the caller's state
// as records, and on a successful atomic commit the journal segments that
// were fully applied at rotation time — provably covered by this
// snapshot — are deleted, along with all older snapshot files. On any
// failure the previous snapshot and the full journal remain authoritative
// and the error is reported (and counted) but nothing is lost.
func (s *Store) Snapshot(fill func(add func([]byte) error) error) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	barrier, deletable, err := s.j.rotate()
	if err != nil {
		s.snapErrs.Add(1)
		return err
	}
	seq := s.snapSeq + 1
	if err := writeSnapshot(s.fsys, s.opts.Dir, seq, barrier, fill); err != nil {
		s.snapErrs.Add(1)
		return err
	}
	s.snapSeq = seq
	s.snapsWritten.Add(1)
	s.lastSnap.Store(time.Now().UnixNano())

	// The new snapshot is durable: drop the journal prefix it covers,
	// every snapshot older than the previous one (the previous stays as a
	// fallback against later corruption of the newest), and any stale
	// temporaries left by crashed snapshot attempts.
	s.j.removeSegments(deletable)
	if names, lerr := s.fsys.ReadDir(s.opts.Dir); lerr == nil {
		for _, name := range names {
			if q, ok := parseSnapName(name); ok && q+1 < seq {
				_ = s.fsys.Remove(filepath.Join(s.opts.Dir, name))
			} else if strings.HasSuffix(name, ".tmp") {
				_ = s.fsys.Remove(filepath.Join(s.opts.Dir, name))
			}
		}
	}
	return nil
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		JournalRecords:   s.j.records.Load(),
		JournalBytes:     s.j.bytes.Load(),
		JournalSegments:  s.j.segmentCount(),
		WriteErrors:      s.j.writeErrs.Load(),
		FsyncErrors:      s.j.syncErrs.Load(),
		SnapshotsWritten: s.snapsWritten.Load(),
		SnapshotErrors:   s.snapErrs.Load(),
	}
	s.j.mu.Lock()
	st.JournalSeq = s.j.seg
	s.j.mu.Unlock()
	s.snapMu.Lock()
	st.SnapshotSeq = s.snapSeq
	s.snapMu.Unlock()
	if ns := s.j.lastSync.Load(); ns > 0 {
		st.LastFsync = time.Unix(0, ns)
	}
	if ns := s.lastSnap.Load(); ns > 0 {
		st.LastSnapshot = time.Unix(0, ns)
	}
	return st
}

// Close stops the group-commit loop and fsyncs and closes the journal.
// Call after the final snapshot; Close itself does not snapshot.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.stopSync != nil {
		close(s.stopSync)
		<-s.syncDone
	}
	return s.j.close()
}
