package durable

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay throws arbitrary bytes at the journal replay path —
// the framed-record scanner plus segment-level torn-tail repair — and
// holds the recovery invariants:
//
//   - replay never panics, whatever the file contains;
//   - every surfaced record passes its CRC (a corrupt record is
//     truncated away, never returned);
//   - repair is idempotent: a second scan of the repaired file recovers
//     exactly the same records with zero dropped bytes, so a crash loop
//     cannot progressively eat valid data.
func FuzzJournalReplay(f *testing.F) {
	// Seed corpus: a clean two-record segment, a torn tail, a corrupt
	// payload, an all-zero page, and raw garbage.
	var hdr [segHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], journalMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], journalVersion)
	clean := append([]byte{}, hdr[:]...)
	clean = appendFrame(clean, []byte("first record"))
	clean = appendFrame(clean, []byte("second record"))
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	corrupt := append([]byte{}, clean...)
	corrupt[len(corrupt)-3] ^= 0xff
	f.Add(corrupt)
	f.Add(append(append([]byte{}, hdr[:]...), make([]byte, 64)...))
	f.Add([]byte("complete garbage, not even a header"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("write fuzz segment: %v", err)
		}
		res := scanSegment(OS{}, path, true)
		if res.skipped {
			if len(res.records) != 0 {
				t.Fatalf("skipped segment surfaced %d records", len(res.records))
			}
			return
		}
		for i, rec := range res.records {
			if len(rec) == 0 {
				t.Fatalf("record %d is empty (zero-length records are corrupt by definition)", i)
			}
		}
		// The surfaced records are exactly the file's valid prefix: after
		// repair, re-framing them must reproduce the file byte for byte —
		// which implies every one carried a matching CRC and nothing
		// undecodable survived the truncation.
		rebuilt := append([]byte{}, data[:segHeaderLen]...)
		for _, rec := range res.records {
			rebuilt = appendFrame(rebuilt, rec)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read repaired segment: %v", err)
		}
		if !bytes.Equal(repaired, rebuilt) {
			t.Fatalf("repaired file (%d bytes) != reframed records (%d bytes)", len(repaired), len(rebuilt))
		}
		// Idempotence: rescanning the repaired file yields the same
		// records and no further damage.
		again := scanSegment(OS{}, path, true)
		if again.skipped {
			t.Fatal("repaired segment became unreadable")
		}
		if again.droppedBytes != 0 || again.truncated {
			t.Fatalf("second scan still dropping: %d bytes, truncated=%v", again.droppedBytes, again.truncated)
		}
		if len(again.records) != len(res.records) {
			t.Fatalf("second scan recovered %d records, first %d", len(again.records), len(res.records))
		}
		for i := range again.records {
			if !bytes.Equal(again.records[i], res.records[i]) {
				t.Fatalf("record %d changed across rescans", i)
			}
		}
	})
}
