package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// openTest opens a store on dir with test-friendly options: strict fsync
// (no background goroutine, deterministic) unless overridden.
func openTest(t *testing.T, dir string) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(Options{Dir: dir, FsyncInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rec
}

// payloads renders n distinct record payloads.
func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%04d-%s", i, "payload"))
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	want := payloads(5)
	for _, p := range want {
		buf = appendFrame(buf, p)
	}
	sc := newRecordScanner(bytes.NewReader(buf), 0)
	for i, w := range want {
		got, err := sc.next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("record %d = %q, want %q", i, got, w)
		}
	}
	if _, err := sc.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after last record: %v, want EOF", err)
	}
	if sc.validOff != int64(len(buf)) {
		t.Fatalf("validOff = %d, want %d", sc.validOff, len(buf))
	}
}

func TestScannerRejectsZeroLengthAndOversize(t *testing.T) {
	// A zero-length frame (e.g. an all-zero page) must be corrupt, not an
	// empty record.
	zero := make([]byte, 64)
	sc := newRecordScanner(bytes.NewReader(zero), 0)
	if _, err := sc.next(); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("zero page: %v, want ErrCorruptRecord", err)
	}
	// A length beyond the cap is rejected before allocation: the header
	// alone declares the oversize payload.
	huge := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(huge, maxRecordBytes+1)
	sc = newRecordScanner(bytes.NewReader(huge), 0)
	if _, err := sc.next(); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("oversize: %v, want ErrCorruptRecord", err)
	}
}

func TestScannerReportsTornHeaderAndPayload(t *testing.T) {
	full := appendFrame(nil, []byte("hello"))
	for _, cut := range []int{1, frameHeaderLen - 1, frameHeaderLen + 2} {
		sc := newRecordScanner(bytes.NewReader(full[:cut]), 0)
		if _, err := sc.next(); !errors.Is(err, ErrTornRecord) {
			t.Fatalf("cut at %d: %v, want ErrTornRecord", cut, err)
		}
		if sc.validOff != 0 {
			t.Fatalf("cut at %d: validOff = %d, want 0", cut, sc.validOff)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := openTest(t, dir)
	if rec.SnapshotSeq != 0 || len(rec.JournalRecords) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	want := payloads(10)
	for _, p := range want {
		if _, err := s.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := s.Stats()
	if st.JournalRecords != 10 {
		t.Fatalf("JournalRecords = %d, want 10", st.JournalRecords)
	}
	if st.LastFsync.IsZero() {
		t.Fatal("strict mode left LastFsync zero")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec2 := openTest(t, dir)
	defer s2.Close()
	if len(rec2.JournalRecords) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec2.JournalRecords), len(want))
	}
	for i, p := range want {
		if !bytes.Equal(rec2.JournalRecords[i], p) {
			t.Fatalf("record %d = %q, want %q", i, rec2.JournalRecords[i], p)
		}
	}
	if rec2.TailTruncated || rec2.DroppedBytes != 0 {
		t.Fatalf("clean shutdown reported damage: %+v", rec2)
	}
}

func TestAppendRejectsEmptyAndOversize(t *testing.T) {
	s, _ := openTest(t, t.TempDir())
	defer s.Close()
	if _, err := s.Append(nil); err == nil {
		t.Fatal("Append(nil) succeeded")
	}
	if _, err := s.Append(make([]byte, maxRecordBytes+1)); err == nil {
		t.Fatal("oversize Append succeeded")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	s, _ := openTest(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Append([]byte("x")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := s.Snapshot(func(func([]byte) error) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// activeSegPath returns the path of the newest wal segment in dir.
func activeSegPath(t *testing.T, dir string) string {
	t.Helper()
	names, err := OS{}.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	last := ""
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			last = name
		}
	}
	if last == "" {
		t.Fatal("no wal segment on disk")
	}
	return filepath.Join(dir, last)
}

func TestTornTailTruncatedAndRepaired(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	want := payloads(3)
	for _, p := range want {
		if _, err := s.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the tail: a partial frame of a crashed append.
	path := activeSegPath(t, dir)
	torn := appendFrame(nil, []byte("never finished"))[:11]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatalf("tear: %v", err)
	}
	f.Close()
	sizeWithTear := fileSize(t, path)

	s2, rec := openTest(t, dir)
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(rec.JournalRecords) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.JournalRecords), len(want))
	}
	if !rec.TailTruncated || rec.DroppedBytes != int64(len(torn)) {
		t.Fatalf("tear not reported: %+v", rec)
	}
	if got := fileSize(t, path); got != sizeWithTear-int64(len(torn)) {
		t.Fatalf("segment size after repair = %d, want %d", got, sizeWithTear-int64(len(torn)))
	}

	// The repair persisted: a third boot sees a clean prefix.
	s3, rec3 := openTest(t, dir)
	defer s3.Close()
	if rec3.TailTruncated || rec3.DroppedBytes != 0 || len(rec3.JournalRecords) != len(want) {
		t.Fatalf("repair did not persist: %+v", rec3)
	}
}

func TestMidSegmentCorruptionDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	want := payloads(4)
	for _, p := range want {
		if _, err := s.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip one byte inside the third record's payload: records 0–1 stay
	// valid, 2 fails its checksum, 3 is unreachable (framing lost).
	path := activeSegPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	frame := frameHeaderLen + len(want[0])
	off := segHeaderLen + 2*frame + frameHeaderLen + 3
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write corrupted segment: %v", err)
	}

	s2, rec := openTest(t, dir)
	defer s2.Close()
	if len(rec.JournalRecords) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.JournalRecords))
	}
	for i := 0; i < 2; i++ {
		if !bytes.Equal(rec.JournalRecords[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, rec.JournalRecords[i], want[i])
		}
	}
	if rec.DroppedBytes != int64(2*frame) {
		t.Fatalf("DroppedBytes = %d, want %d", rec.DroppedBytes, 2*frame)
	}
}

func TestUnreadableSegmentSkippedNotFatal(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	if _, err := s.Append([]byte("good")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A wal-named file with a garbage header: skipped, never fatal.
	if err := os.WriteFile(filepath.Join(dir, segName(99)), []byte("not a journal"), 0o644); err != nil {
		t.Fatalf("write bogus segment: %v", err)
	}
	s2, rec := openTest(t, dir)
	defer s2.Close()
	if rec.SegmentsSkipped != 1 {
		t.Fatalf("SegmentsSkipped = %d, want 1", rec.SegmentsSkipped)
	}
	if len(rec.JournalRecords) != 1 || !bytes.Equal(rec.JournalRecords[0], []byte("good")) {
		t.Fatalf("good record lost: %+v", rec.JournalRecords)
	}
}

// countFiles counts dir entries matching the given parser.
func countFiles(t *testing.T, dir string, parse func(string) (uint64, bool)) int {
	t.Helper()
	names, err := OS{}.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	n := 0
	for _, name := range names {
		if _, ok := parse(name); ok {
			n++
		}
	}
	return n
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	return fi.Size()
}

func TestSnapshotTruncatesAppliedSegments(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	for _, p := range payloads(6) {
		seg, err := s.Append(p)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		s.Applied(seg)
	}
	state := payloads(3)
	if err := s.Snapshot(func(add func([]byte) error) error {
		for _, p := range state {
			if err := add(p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec := openTest(t, dir)
	defer s2.Close()
	if rec.SnapshotSeq != 1 {
		t.Fatalf("SnapshotSeq = %d, want 1", rec.SnapshotSeq)
	}
	if len(rec.SnapshotRecords) != len(state) {
		t.Fatalf("snapshot records = %d, want %d", len(rec.SnapshotRecords), len(state))
	}
	for i, p := range state {
		if !bytes.Equal(rec.SnapshotRecords[i], p) {
			t.Fatalf("snapshot record %d = %q, want %q", i, rec.SnapshotRecords[i], p)
		}
	}
	// Every journal record was applied before the snapshot: nothing to
	// replay.
	if len(rec.JournalRecords) != 0 {
		t.Fatalf("journal tail = %d records, want 0", len(rec.JournalRecords))
	}
}

func TestSnapshotKeepsUnappliedSegments(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	seg1, err := s.Append([]byte("applied"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := s.Append([]byte("in-flight")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	s.Applied(seg1)
	// One record of the segment is still outstanding at rotation time: the
	// whole segment must survive the snapshot.
	if err := s.Snapshot(func(add func([]byte) error) error {
		return add([]byte("state"))
	}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec := openTest(t, dir)
	defer s2.Close()
	if len(rec.JournalRecords) != 2 {
		t.Fatalf("journal tail = %d records, want 2 (unapplied segment replays whole)", len(rec.JournalRecords))
	}
}

func TestSnapshotFallbackToOlderAndCleanup(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	for i := 1; i <= 3; i++ {
		body := []byte(fmt.Sprintf("state-%d", i))
		if err := s.Snapshot(func(add func([]byte) error) error { return add(body) }); err != nil {
			t.Fatalf("Snapshot %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Only the two newest snapshots survive the cleanup.
	if n := countFiles(t, dir, parseSnapName); n != 2 {
		t.Fatalf("snapshots on disk = %d, want 2", n)
	}

	// Corrupt the newest: boot falls back to the previous one.
	newest := filepath.Join(dir, snapName(3))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatalf("corrupt snapshot: %v", err)
	}

	s2, rec := openTest(t, dir)
	if rec.InvalidSnapshots != 1 {
		t.Fatalf("InvalidSnapshots = %d, want 1", rec.InvalidSnapshots)
	}
	if rec.SnapshotSeq != 2 || len(rec.SnapshotRecords) != 1 ||
		!bytes.Equal(rec.SnapshotRecords[0], []byte("state-2")) {
		t.Fatalf("fallback snapshot wrong: seq %d records %q", rec.SnapshotSeq, rec.SnapshotRecords)
	}
	// The next snapshot must not collide with the corrupt seq-3 file.
	if err := s2.Snapshot(func(add func([]byte) error) error { return add([]byte("state-4")) }); err != nil {
		t.Fatalf("Snapshot after fallback: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s3, rec3 := openTest(t, dir)
	defer s3.Close()
	if rec3.SnapshotSeq != 4 || !bytes.Equal(rec3.SnapshotRecords[0], []byte("state-4")) {
		t.Fatalf("post-fallback snapshot: seq %d records %q", rec3.SnapshotSeq, rec3.SnapshotRecords)
	}
}

func TestSnapshotFillErrorKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir)
	if _, err := s.Append([]byte("survives")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	boom := errors.New("boom")
	if err := s.Snapshot(func(add func([]byte) error) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Snapshot = %v, want boom", err)
	}
	if got := s.Stats().SnapshotErrors; got != 1 {
		t.Fatalf("SnapshotErrors = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, rec := openTest(t, dir)
	defer s2.Close()
	if len(rec.JournalRecords) != 1 || !bytes.Equal(rec.JournalRecords[0], []byte("survives")) {
		t.Fatalf("journal lost after failed snapshot: %+v", rec.JournalRecords)
	}
	if rec.SnapshotSeq != 0 {
		t.Fatalf("SnapshotSeq = %d, want 0 (no committed snapshot)", rec.SnapshotSeq)
	}
	// The aborted temporary must not linger as a visible snapshot.
	if n := countFiles(t, dir, parseSnapName); n != 0 {
		t.Fatalf("snapshots on disk = %d, want 0", n)
	}
}

func TestGroupCommitModeSyncsInBackground(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, FsyncInterval: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	before := s.Stats().LastFsync
	if _, err := s.Append([]byte("grouped")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s.Stats().LastFsync.After(before) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("group fsync never advanced LastFsync")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConcurrentAppendsRecoverAll(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, FsyncInterval: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const writers, per = 8, 50
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				if _, err := s.Append([]byte(fmt.Sprintf("w%02d-%04d", w, i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatalf("writer: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, rec := openTest(t, dir)
	defer s2.Close()
	if len(rec.JournalRecords) != writers*per {
		t.Fatalf("recovered %d records, want %d", len(rec.JournalRecords), writers*per)
	}
	seen := make(map[string]bool, writers*per)
	for _, p := range rec.JournalRecords {
		seen[string(p)] = true
	}
	if len(seen) != writers*per {
		t.Fatalf("distinct recovered records = %d, want %d", len(seen), writers*per)
	}
}

// TestOpenRefusesOtherFormatVersion: a data directory holding a version-1
// journal segment and snapshot — well-formed headers, valid records — is
// refused with ErrFormatVersion naming the file and both versions, and
// every file in it is byte-identical afterwards, with none added. Skipping
// them as damaged would let the first snapshot after recovery delete them.
// A fresh directory still opens and recovers what it was given.
func TestOpenRefusesOtherFormatVersion(t *testing.T) {
	header := func(magic uint32, version uint16, size int) []byte {
		hdr := make([]byte, size)
		binary.LittleEndian.PutUint32(hdr[0:4], magic)
		binary.LittleEndian.PutUint16(hdr[4:6], version)
		return hdr
	}
	seg := appendFrame(header(journalMagic, 1, segHeaderLen), []byte("v1 round"))
	snap := header(snapMagic, 1, snapHeaderLen)
	binary.LittleEndian.PutUint64(snap[6:14], 1)  // seq
	binary.LittleEndian.PutUint64(snap[14:22], 2) // barrier
	snap = appendFrame(snap, []byte("v1 graph"))

	for _, tc := range []struct {
		name  string
		files map[string][]byte
		bad   string
	}{
		{"segment and snapshot", map[string][]byte{segName(2): seg, snapName(1): snap}, snapName(1)},
		{"segment alone", map[string][]byte{segName(1): seg}, segName(1)},
		{"snapshot alone", map[string][]byte{snapName(1): snap}, snapName(1)},
	} {
		dir := t.TempDir()
		for name, b := range tc.files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, _, err := Open(Options{Dir: dir, FsyncInterval: -1, Logf: t.Logf})
		if err == nil {
			_ = s.Close()
			t.Fatalf("%s: Open accepted a version-1 directory", tc.name)
		}
		if !errors.Is(err, ErrFormatVersion) {
			t.Fatalf("%s: Open: %v, want ErrFormatVersion", tc.name, err)
		}
		for _, want := range []string{tc.bad, "version 1", fmt.Sprintf("version %d", journalVersion)} {
			if !bytes.Contains([]byte(err.Error()), []byte(want)) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, want)
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(tc.files) {
			t.Errorf("%s: %d files after the refusal, want %d", tc.name, len(entries), len(tc.files))
		}
		for name, want := range tc.files {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: %s changed by the refusal (%v)", tc.name, name, err)
			}
		}
	}

	dir := t.TempDir()
	s, _ := openTest(t, dir)
	for _, p := range payloads(3) {
		if _, err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, rec := openTest(t, dir)
	defer func() { _ = s.Close() }()
	if len(rec.JournalRecords) != 3 {
		t.Fatalf("fresh directory recovered %d records, want 3", len(rec.JournalRecords))
	}
}
