package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record framing: every journal and snapshot record is stored as
//
//	u32 length | u32 crc32c(payload) | payload[length]
//
// little-endian, with the Castagnoli polynomial (the hardware-accelerated
// CRC used by ext4, Btrfs and most storage formats). The length is
// checked against maxRecordBytes before any allocation, a
// zero-length record is invalid by definition (an all-zero disk page must
// not scan as an endless stream of empty records), and a record whose
// checksum does not match its payload is never surfaced to the caller.
const (
	// frameHeaderLen is the per-record framing overhead in bytes.
	frameHeaderLen = 8
	// maxRecordBytes caps one record's payload (journal appends
	// and snapshot records alike).
	maxRecordBytes = 64 << 20
)

// crcTable is the Castagnoli (CRC32C) table shared by all framing.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Framing errors. Both mark the end of the decodable prefix of a stream;
// the scanner distinguishes them only for diagnostics (a torn record is
// the expected signature of a crash mid-append, a corrupt one of bit rot
// or fault injection).
var (
	// ErrTornRecord reports a record cut short by the end of the file.
	ErrTornRecord = errors.New("durable: torn record")
	// ErrCorruptRecord reports a record whose length or checksum is
	// invalid.
	ErrCorruptRecord = errors.New("durable: corrupt record")
)

// appendFrame appends the framed encoding of payload to dst and returns
// the extended slice.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// recordScanner reads a stream of framed records, tracking the byte
// offset just past the last fully valid record so a torn tail can be
// truncated exactly there.
type recordScanner struct {
	r        io.Reader
	validOff int64 // offset just past the last valid record
	off      int64 // offset of the next unread byte
}

// newRecordScanner scans framed records from r, starting at offset start
// (the segment header the caller already consumed), rejecting payloads
// over maxRecordBytes.
func newRecordScanner(r io.Reader, start int64) *recordScanner {
	return &recordScanner{r: r, validOff: start, off: start}
}

// next returns the next record's payload. io.EOF reports a clean end of
// stream; ErrTornRecord and ErrCorruptRecord report an undecodable tail
// beginning at the last valid offset. The returned payload is freshly
// allocated and safe to retain.
func (s *recordScanner) next() ([]byte, error) {
	var hdr [frameHeaderLen]byte
	n, err := io.ReadFull(s.r, hdr[:])
	s.off += int64(n)
	if errors.Is(err, io.EOF) {
		return nil, io.EOF
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, fmt.Errorf("%w: partial header (%d bytes)", ErrTornRecord, n)
	}
	if err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > maxRecordBytes {
		return nil, fmt.Errorf("%w: record length %d", ErrCorruptRecord, length)
	}
	payload := make([]byte, length)
	n, err = io.ReadFull(s.r, payload)
	s.off += int64(n)
	if err != nil {
		return nil, fmt.Errorf("%w: %d of %d payload bytes", ErrTornRecord, n, length)
	}
	if crc32.Checksum(payload, crcTable) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	s.validOff = s.off
	return payload, nil
}
