package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Snapshot file format: a 22-byte header (magic u32 "COPS" | version u16 |
// seq u64 | barrier u64) followed by framed records. A snapshot is
// written to a temporary name, fsynced, then renamed into place — the
// rename is the commit point, so a crash mid-write leaves at most a
// stale .tmp file and never a half-valid snapshot under the real name.
// Loading validates every record; any tear or corruption invalidates the
// whole file and the loader falls back to the previous snapshot.
const (
	snapMagic     = 0x434f5053 // "COPS"
	snapVersion   = 2
	snapHeaderLen = 22
)

// snapName renders the file name of snapshot seq.
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// parseSnapName inverts snapName.
func parseSnapName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "snap-%016x.snap", &seq); err != nil {
		return 0, false
	}
	return seq, name == snapName(seq)
}

// snapshotData is one fully validated snapshot.
type snapshotData struct {
	seq     uint64
	barrier uint64 // journal segment seq active when the snapshot began
	records [][]byte
}

// writeSnapshot writes a snapshot with the given sequence and barrier,
// filling its records through the fill callback (fill calls add once per
// record), and atomically renames it into place. On any failure the
// temporary file is removed and the previous snapshot remains the latest.
func writeSnapshot(fsys FS, dir string, seq, barrier uint64, fill func(add func([]byte) error) error) (err error) {
	tmp := filepath.Join(dir, snapName(seq)+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: snapshot tmp: %w", err)
	}
	committed := false
	defer func() {
		if !committed {
			_ = f.Close()
			_ = fsys.Remove(tmp)
		}
	}()

	var hdr [snapHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], snapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], snapVersion)
	binary.LittleEndian.PutUint64(hdr[6:14], seq)
	binary.LittleEndian.PutUint64(hdr[14:22], barrier)
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("durable: snapshot header: %w", err)
	}
	var scratch []byte
	add := func(payload []byte) error {
		if len(payload) == 0 || len(payload) > maxRecordBytes {
			return fmt.Errorf("%w: snapshot record of %d bytes", ErrCorruptRecord, len(payload))
		}
		scratch = appendFrame(scratch[:0], payload)
		if _, werr := f.Write(scratch); werr != nil {
			return fmt.Errorf("durable: snapshot record: %w", werr)
		}
		return nil
	}
	if err := fill(add); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: snapshot close: %w", err)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, snapName(seq))); err != nil {
		return fmt.Errorf("durable: snapshot rename: %w", err)
	}
	committed = true
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: snapshot dir sync: %w", err)
	}
	return nil
}

// loadSnapshot reads and fully validates one snapshot file; any invalid
// header, torn record or checksum failure rejects the whole file.
func loadSnapshot(fsys FS, path string) (*snapshotData, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	var hdr [snapHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: snapshot header", ErrTornRecord)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != snapMagic ||
		binary.LittleEndian.Uint16(hdr[4:6]) != snapVersion {
		return nil, fmt.Errorf("%w: snapshot magic", ErrCorruptRecord)
	}
	snap := &snapshotData{
		seq:     binary.LittleEndian.Uint64(hdr[6:14]),
		barrier: binary.LittleEndian.Uint64(hdr[14:22]),
	}
	sc := newRecordScanner(f, snapHeaderLen)
	for {
		payload, err := sc.next()
		if errors.Is(err, io.EOF) {
			return snap, nil
		}
		if err != nil {
			return nil, err
		}
		snap.records = append(snap.records, payload)
	}
}
