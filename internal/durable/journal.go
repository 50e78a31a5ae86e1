package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Segment file format: a 6-byte header (magic u32 "COPJ" | version u16)
// followed by framed records (see record.go). Segments are append-only
// and named wal-%016x.log by their sequence number; a new segment opens
// at every snapshot barrier and after a failed append (so a torn frame
// never has live records written after it).
const (
	journalMagic   = 0x434f504a // "COPJ"
	journalVersion = 2
	segHeaderLen   = 6
)

// ErrClosed is returned by operations on a closed journal or store.
var ErrClosed = errors.New("durable: closed")

// segName renders the file name of segment seq.
func segName(seq uint64) string { return fmt.Sprintf("wal-%016x.log", seq) }

// parseSegName inverts segName.
func parseSegName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "wal-%016x.log", &seq); err != nil {
		return 0, false
	}
	return seq, name == segName(seq)
}

// journal is the write-ahead log: an active append-only segment plus the
// frozen segments awaiting truncation. Appends serialize on mu (a write
// is one buffered frame build plus one write syscall — the page cache,
// not the disk, absorbs it); fsync runs outside mu so a group commit
// never stalls concurrent appends. syncMu serializes fsync, rotation and
// close against each other so the active file handle is never closed
// under an in-flight Sync; whenever both locks are held, syncMu is
// acquired first.
type journal struct {
	fsys      FS
	dir       string
	syncEvery bool // fsync inline on every append (FsyncInterval < 0)

	syncMu sync.Mutex // held across fsync/rotate/close; before mu
	mu     sync.Mutex // guards the fields below
	f      File       // active segment, nil once closed
	seg    uint64     // active segment sequence number
	// outstanding counts appended-but-not-yet-applied records per
	// segment; a frozen segment is deletable only once its count is zero
	// (its every record's effects are visible to a snapshot scan).
	outstanding map[uint64]int
	frozen      []uint64 // frozen segment seqs still on disk, ascending
	poisoned    bool     // a write failed mid-frame; rotate before the next append
	closed      bool
	scratch     []byte

	records   atomic.Uint64
	bytes     atomic.Uint64
	writeErrs atomic.Uint64
	syncErrs  atomic.Uint64
	lastSync  atomic.Int64 // unix nanos of the last successful fsync
}

// openJournal opens a fresh active segment with sequence activeSeq in dir,
// treating existing (already scanned) segments as frozen.
func openJournal(fsys FS, dir string, activeSeq uint64, frozen []uint64, syncEvery bool) (*journal, error) {
	j := &journal{
		fsys:        fsys,
		dir:         dir,
		syncEvery:   syncEvery,
		seg:         activeSeq,
		outstanding: make(map[uint64]int),
		frozen:      append([]uint64(nil), frozen...),
	}
	sort.Slice(j.frozen, func(a, b int) bool { return j.frozen[a] < j.frozen[b] })
	f, err := j.createSegment(activeSeq)
	if err != nil {
		return nil, err
	}
	j.f = f
	j.lastSync.Store(time.Now().UnixNano())
	return j, nil
}

// createSegment creates segment seq's file and writes its header.
func (j *journal) createSegment(seq uint64) (File, error) {
	f, err := j.fsys.OpenFile(filepath.Join(j.dir, segName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: create segment %d: %w", seq, err)
	}
	var hdr [segHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], journalMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], journalVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("durable: segment %d header: %w", seq, err)
	}
	return f, nil
}

// append writes one framed record to the active segment and returns the
// segment sequence number the record landed in (the caller's applied
// token). The write reaches the OS page cache before append returns — so
// a SIGKILL loses nothing once the caller has seen the token — but
// stable-storage durability waits for the next group fsync.
func (j *journal) append(payload []byte) (uint64, error) {
	if len(payload) == 0 || len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("%w: payload of %d bytes", ErrCorruptRecord, len(payload))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if j.poisoned {
		return 0, fmt.Errorf("durable: segment %d poisoned by a failed write", j.seg)
	}
	j.scratch = appendFrame(j.scratch[:0], payload)
	if _, err := j.f.Write(j.scratch); err != nil {
		// The frame may be partially on disk: recovery will truncate it,
		// but nothing more may be appended after the tear.
		j.poisoned = true
		j.writeErrs.Add(1)
		return 0, fmt.Errorf("durable: append to segment %d: %w", j.seg, err)
	}
	j.outstanding[j.seg]++
	j.records.Add(1)
	j.bytes.Add(uint64(len(j.scratch)))
	if j.syncEvery {
		if err := j.f.Sync(); err != nil {
			j.syncErrs.Add(1)
			return 0, fmt.Errorf("durable: fsync segment %d: %w", j.seg, err)
		}
		j.lastSync.Store(time.Now().UnixNano())
	}
	return j.seg, nil
}

// applied marks one record of segment seg as applied: its effects are now
// published in the caller's in-memory state, so a snapshot scan that
// starts later will capture them.
func (j *journal) applied(seg uint64) {
	j.mu.Lock()
	if n, ok := j.outstanding[seg]; ok {
		if n <= 1 {
			delete(j.outstanding, seg)
		} else {
			j.outstanding[seg] = n - 1
		}
	}
	j.mu.Unlock()
}

// sync flushes the active segment with a group fsync. Appends proceed
// concurrently: bytes written after the fsync starts simply wait for the
// next one.
func (j *journal) sync() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	f := j.f
	j.mu.Unlock()
	if f == nil {
		return ErrClosed
	}
	if err := f.Sync(); err != nil {
		j.syncErrs.Add(1)
		return err
	}
	j.lastSync.Store(time.Now().UnixNano())
	return nil
}

// rotate freezes the active segment and opens a fresh one, returning the
// new active sequence number (the snapshot barrier: every record in
// segments < barrier was appended before this call) and the list of
// frozen segments that were fully applied at rotation time. Only those
// may be deleted once the snapshot that triggered the rotation commits:
// a record applied before the rotation had published its effects before
// the snapshot scan started, so the snapshot is a superset of it.
func (j *journal) rotate() (barrier uint64, deletable []uint64, err error) {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, nil, ErrClosed
	}
	newSeq := j.seg + 1
	j.mu.Unlock()

	nf, err := j.createSegment(newSeq)
	if err != nil {
		return 0, nil, err
	}
	j.mu.Lock()
	old := j.f
	oldSeq := j.seg
	j.f = nf
	j.seg = newSeq
	j.poisoned = false
	j.frozen = append(j.frozen, oldSeq)
	for _, seq := range j.frozen {
		if j.outstanding[seq] == 0 {
			deletable = append(deletable, seq)
		}
	}
	j.mu.Unlock()

	// Seal the frozen segment: push its tail to stable storage before the
	// snapshot that will truncate it can commit.
	if err := old.Sync(); err != nil {
		j.syncErrs.Add(1)
	}
	if err := old.Close(); err != nil {
		j.writeErrs.Add(1)
	}
	return newSeq, deletable, nil
}

// removeSegments deletes the given frozen segments from disk and from the
// frozen list. Removal failures are counted but not fatal — an undeleted
// segment is replayed idempotently on the next boot.
func (j *journal) removeSegments(seqs []uint64) {
	if len(seqs) == 0 {
		return
	}
	drop := make(map[uint64]bool, len(seqs))
	for _, seq := range seqs {
		if err := j.fsys.Remove(filepath.Join(j.dir, segName(seq))); err != nil {
			j.writeErrs.Add(1)
			continue
		}
		drop[seq] = true
	}
	j.mu.Lock()
	kept := j.frozen[:0]
	for _, seq := range j.frozen {
		if !drop[seq] {
			kept = append(kept, seq)
		}
	}
	j.frozen = kept
	j.mu.Unlock()
	if err := j.fsys.SyncDir(j.dir); err != nil {
		j.syncErrs.Add(1)
	}
}

// segmentCount reports the number of on-disk segments (frozen + active).
func (j *journal) segmentCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.frozen)
	if !j.closed {
		n++
	}
	return n
}

// close fsyncs and closes the active segment.
func (j *journal) close() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	f := j.f
	j.f = nil
	j.closed = true
	j.mu.Unlock()
	if f == nil {
		return nil
	}
	serr := f.Sync()
	if serr != nil {
		j.syncErrs.Add(1)
	} else {
		j.lastSync.Store(time.Now().UnixNano())
	}
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// segScanResult is one segment's replay outcome.
type segScanResult struct {
	records      [][]byte
	droppedBytes int64
	truncated    bool
	skipped      bool // unreadable header: the whole file was ignored
}

// scanSegment replays one segment file, returning every CRC-valid record
// in order. A torn or corrupt record ends the scan; when repairTail is
// set (the newest segment — the only one legitimately torn by a crash
// mid-append), the file is truncated back to the last valid record so
// the tear can never shadow future appends. Scanning never fails boot:
// an unreadable file is skipped and counted.
func scanSegment(fsys FS, path string, repairTail bool) segScanResult {
	var res segScanResult
	flag := os.O_RDONLY
	if repairTail {
		flag = os.O_RDWR
	}
	f, err := fsys.OpenFile(path, flag, 0)
	if err != nil {
		res.skipped = true
		return res
	}
	defer func() { _ = f.Close() }()

	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil ||
		binary.LittleEndian.Uint32(hdr[0:4]) != journalMagic ||
		binary.LittleEndian.Uint16(hdr[4:6]) != journalVersion {
		res.skipped = true
		return res
	}
	sc := newRecordScanner(f, segHeaderLen)
	for {
		payload, err := sc.next()
		if errors.Is(err, io.EOF) {
			return res
		}
		if err != nil {
			// Torn or corrupt tail: everything before it is good, nothing
			// after it is trustworthy (framing is lost).
			res.droppedBytes = sc.off - sc.validOff
			if rest, rerr := io.Copy(io.Discard, f); rerr == nil {
				res.droppedBytes += rest
			}
			if repairTail {
				if terr := f.Truncate(sc.validOff); terr == nil {
					res.truncated = true
					_ = f.Sync()
				}
			}
			return res
		}
		res.records = append(res.records, payload)
	}
}
