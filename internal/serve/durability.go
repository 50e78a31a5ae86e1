package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// Durability integration: with Config.Journal set, dispatchRound appends
// each solve round as the batcher closed it (recRound) and solveMutation each
// mutation (recMutate), both before solving, and each releases its record
// after every decision it produced is cached — so a record a snapshot
// truncation drops is covered by that snapshot, and one still in the journal
// at a crash is replayed as written. Admission, the warm path and a shed
// request never touch the journal, with one exception: a mutate answered from
// the cache whose applied graph had left the intern table journals its
// recMutate around the re-intern, so replay re-interns it as well. Records
// reuse the canonical binary graph codec, so replay reproduces the live
// request's cache key.

// Journal is the write-ahead log the server appends solve rounds and
// mutations to. durable.Store satisfies it structurally; serve stays free
// of a durable dependency so in-memory serving links no storage code.
type Journal interface {
	// Append journals one encoded round or mutation, returning a token to
	// pass to Applied once its decisions are published in memory. It must
	// not retain payload: the server reuses the buffer for the next round.
	Append(payload []byte) (uint64, error)
	// Applied releases one appended record for snapshot truncation.
	Applied(token uint64)
}

// Durability record types (first payload byte).
const (
	recAccepted uint8 = 1 // one accepted request: a round member, or a round of one on its own
	recDecision uint8 = 2 // snapshot: one cached decision
	recGraph    uint8 = 3 // snapshot: one interned graph
	recCounters uint8 = 4 // snapshot: monotonic traffic counters
	recMutate   uint8 = 5 // journal: one accepted graph mutation
	recRound    uint8 = 6 // journal: one solve round, its members and their multiplicities
)

// RecoveryStats summarises one boot-time Recover pass, surfaced under
// /v1/stats durability.replay.
type RecoveryStats struct {
	// SnapshotGraphs counts graphs re-interned from the snapshot.
	SnapshotGraphs int `json:"snapshot_graphs"`
	// SnapshotDecisions counts decisions restored from the snapshot.
	SnapshotDecisions int `json:"snapshot_decisions"`
	// JournalRecords counts journal records presented for replay.
	JournalRecords int `json:"journal_records"`
	// ReplayWarm counts journaled requests (round members and mutates)
	// skipped because the restored cache, or an earlier replayed record,
	// already covered their key.
	ReplayWarm int `json:"replay_warm"`
	// ReplaySolved counts journaled requests re-solved into the cache.
	ReplaySolved int `json:"replay_solved"`
	// ReplayMutates counts mutate records whose delta was re-applied to
	// reconstruct the mutated graph during replay (warm or solved).
	ReplayMutates int `json:"replay_mutates"`
	// ReplayErrors counts replayed requests whose cell failed to solve, plus
	// mutate records whose base is not interned.
	ReplayErrors int `json:"replay_errors"`
	// DecodeErrors counts records that failed to decode (CRC-valid but
	// semantically unusable — version skew or fault injection).
	DecodeErrors int `json:"decode_errors"`
}

// DurabilityStats is the durability section of a Stats snapshot. The
// journal and snapshot fields come from the daemon's durable store via
// Config.DurabilityStats; AppendErrors and Replay are the server's own.
type DurabilityStats struct {
	// JournalSegments is the number of on-disk journal segments.
	JournalSegments int `json:"journal_segments"`
	// JournalRecords counts records journaled since boot.
	JournalRecords uint64 `json:"journal_records"`
	// JournalBytes counts journal bytes written since boot.
	JournalBytes uint64 `json:"journal_bytes"`
	// AppendErrors counts rounds and mutations served without a journal
	// record because Append failed (availability over durability).
	AppendErrors uint64 `json:"append_errors"`
	// WriteErrors counts failed journal writes inside the store.
	WriteErrors uint64 `json:"write_errors"`
	// FsyncErrors counts failed fsyncs.
	FsyncErrors uint64 `json:"fsync_errors"`
	// LastFsyncAgeMs is the age of the last successful journal fsync in
	// milliseconds (-1 before the first).
	LastFsyncAgeMs int64 `json:"last_fsync_age_ms"`
	// SnapshotSeq is the newest committed snapshot's sequence number.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotsWritten counts snapshots committed since boot.
	SnapshotsWritten uint64 `json:"snapshots_written"`
	// SnapshotErrors counts failed snapshot attempts.
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// LastSnapshotAgeMs is the age of the newest snapshot committed this
	// run in milliseconds (-1 before the first).
	LastSnapshotAgeMs int64 `json:"last_snapshot_age_ms"`
	// Replay is the boot-time recovery summary (nil when the server
	// booted without recovering).
	Replay *RecoveryStats `json:"replay,omitempty"`
}

// readFloatBlock inverts floatBlock over block (floatBlockLen bytes),
// applying the live decode path's checks — finite values, valid params,
// non-negative overrides — so a hostile or version-skewed record can never
// enter a solve.
func readFloatBlock(block []byte) (mec.Params, UserOverrides, error) {
	var v [floatBlockLen / 8]float64
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(block[i*8:]))
		if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
			return mec.Params{}, UserOverrides{}, fmt.Errorf("non-finite value")
		}
	}
	params := mec.Params{
		ServerCapacity: v[0], DeviceCompute: v[1], PowerCompute: v[2],
		PowerTransmit: v[3], Bandwidth: v[4],
	}
	o := UserOverrides{FixedLocalWork: v[5], DeviceCompute: v[6], Bandwidth: v[7], PowerTransmit: v[8]}
	err := params.Validate()
	if err == nil {
		err = o.validate()
	}
	return params, o, err
}

// putString appends s behind its little-endian uint32 length.
func putString(buf *bytes.Buffer, s string) {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
	buf.Write(l[:])
	buf.WriteString(s)
}

// readChunk inverts putString (and a round member's length prefix) at the
// head of b, returning the chunk and the bytes after it; ok is false when b
// is too short for either.
func readChunk(b []byte) (chunk, rest []byte, ok bool) {
	if len(b) < 4 {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	if int64(n) > int64(len(b)-4) {
		return nil, nil, false
	}
	return b[4 : 4+n], b[4+n:], true
}

// acceptedGraphOffset is where a recAccepted payload's graph starts.
const acceptedGraphOffset = 1 + floatBlockLen

// newAcceptedRecord returns the recAccepted payload of g solved under params
// and o — the record type, the float block and the canonical binary graph —
// in a buffer of exactly its size: solve encodes a graph once, hashes it
// there (recordFingerprint) and journals the same bytes in its round.
func newAcceptedRecord(g *graph.Graph, params mec.Params, o UserOverrides) []byte {
	rec := make([]byte, 1, acceptedGraphOffset+g.BinarySize())
	rec[0] = recAccepted
	blk := floatBlock(params, o)
	return g.AppendBinary(append(rec, blk[:]...))
}

// recordFingerprint is the fingerprint (graph.Fingerprint) of rec's graph.
func recordFingerprint(rec []byte) string {
	sum := sha256.Sum256(rec[acceptedGraphOffset:])
	return hex.EncodeToString(sum[:])
}

// decodeAccepted inverts newAcceptedRecord into a task of multiplicity 1
// in a fresh cell keyed as its live request was, applying the live decode
// path's validation (readFloatBlock's checks plus the graph limits). It
// never panics (fuzzed by FuzzRecoverJournal).
func decodeAccepted(payload []byte, limits DecodeLimits) (*solveTask, error) {
	if len(payload) < acceptedGraphOffset || payload[0] != recAccepted {
		return nil, fmt.Errorf("serve: not an accepted record")
	}
	params, o, err := readFloatBlock(payload[1:])
	var g *graph.Graph
	if err == nil {
		g, err = graph.ReadBinary(bytes.NewReader(payload[acceptedGraphOffset:]))
	}
	if err == nil {
		err = limits.check(g)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: accepted record: %w", err)
	}
	req := &SolveRequest{Graph: g, UserOverrides: o}
	key, fp, err := requestKey(req, params)
	if err != nil {
		return nil, err
	}
	return &solveTask{p: newPending(key), user: userInputOf(req), params: params, pkey: paramsDigest(params), fp: fp, mult: 1}, nil
}

// appendRound appends round's recRound payload to buf: the record type, the
// member count, then per member a length-prefixed chunk of its multiplicity
// and its recAccepted payload (lengths and counts little-endian uint32s).
func appendRound(buf []byte, round []*solveTask) []byte {
	buf = binary.LittleEndian.AppendUint32(append(buf, recRound), uint32(len(round)))
	for _, t := range round {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(4+len(t.rec)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.mult))
		buf = append(buf, t.rec...)
	}
	return buf
}

// decodeRound inverts appendRound into the round's tasks; a bare
// recAccepted payload, as binaries before round records journaled, is a
// round of one. A multiplicity above maxBatch is clamped as dispatchRound
// clamps it.
func decodeRound(payload []byte, limits DecodeLimits, maxBatch int) ([]*solveTask, error) {
	if len(payload) > 0 && payload[0] == recAccepted {
		payload = appendRound(nil, []*solveTask{{rec: payload, mult: 1}})
	}
	if len(payload) < 5 || payload[0] != recRound {
		return nil, fmt.Errorf("serve: not a round record")
	}
	n, rest := binary.LittleEndian.Uint32(payload[1:]), payload[5:]
	if n == 0 || uint64(n) > uint64(len(rest)/8) {
		return nil, fmt.Errorf("serve: round record: %d members in %d bytes", n, len(rest))
	}
	round := make([]*solveTask, n)
	for i := range round {
		member, next, ok := readChunk(rest)
		if !ok || len(member) < 4 || binary.LittleEndian.Uint32(member) < 1 {
			return nil, fmt.Errorf("serve: round record: member %d truncated or of multiplicity 0", i)
		}
		t, err := decodeAccepted(member[4:], limits)
		if err != nil {
			return nil, fmt.Errorf("serve: round record: member %d: %w", i, err)
		}
		t.mult = int(min(binary.LittleEndian.Uint32(member), uint32(maxBatch)))
		round[i], rest = t, next
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("serve: round record: %d trailing bytes", len(rest))
	}
	return round, nil
}

// encodeMutate renders one accepted mutation as a journal payload: the
// record type, the float block, the base fingerprint, and the delta as
// JSON. Replaying it against the interned base reconstructs the mutated
// graph and the same cache key the live mutate published under.
func encodeMutate(req *MutateRequest, params mec.Params) ([]byte, error) {
	body, err := json.Marshal(req.Delta)
	if err != nil {
		return nil, fmt.Errorf("serve: encode mutate: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteByte(recMutate)
	blk := floatBlock(params, req.UserOverrides)
	buf.Write(blk[:])
	putString(&buf, req.Base)
	buf.Write(body)
	return buf.Bytes(), nil
}

// decodeMutate inverts encodeMutate, applying the same validation as the
// live decode path (readFloatBlock's checks plus validateMutate).
func decodeMutate(payload []byte, limits DecodeLimits) (*MutateRequest, mec.Params, error) {
	if len(payload) < 1+floatBlockLen || payload[0] != recMutate {
		return nil, mec.Params{}, fmt.Errorf("serve: not a mutate record")
	}
	params, o, err := readFloatBlock(payload[1:])
	if err != nil {
		return nil, mec.Params{}, fmt.Errorf("serve: mutate record: %w", err)
	}
	base, rest, ok := readChunk(payload[1+floatBlockLen:])
	if !ok {
		return nil, mec.Params{}, fmt.Errorf("serve: mutate record: truncated fingerprint")
	}
	req := &MutateRequest{Base: string(base), Delta: new(graph.Delta), UserOverrides: o}
	if err := json.Unmarshal(rest, req.Delta); err != nil {
		return nil, mec.Params{}, fmt.Errorf("serve: mutate record: %w", err)
	}
	if err := validateMutate(req, limits); err != nil {
		return nil, mec.Params{}, fmt.Errorf("serve: mutate record: %w", err)
	}
	return req, params, nil
}

// encodeGraphRecord renders one interned graph as a snapshot payload.
func encodeGraphRecord(fp string, g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(recGraph)
	putString(&buf, fp)
	if err := g.WriteBinary(&buf); err != nil {
		return nil, fmt.Errorf("serve: encode graph record: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeGraphRecord inverts encodeGraphRecord.
func decodeGraphRecord(payload []byte, limits DecodeLimits) (string, *graph.Graph, error) {
	if len(payload) < 1 || payload[0] != recGraph {
		return "", nil, fmt.Errorf("serve: not a graph record")
	}
	fp, rest, ok := readChunk(payload[1:])
	if !ok {
		return "", nil, fmt.Errorf("serve: graph record: truncated fingerprint")
	}
	g, err := graph.ReadBinary(bytes.NewReader(rest))
	if err == nil {
		err = limits.check(g)
	}
	if err != nil {
		return "", nil, fmt.Errorf("serve: graph record: %w", err)
	}
	return string(fp), g, nil
}

// encodeDecisionRecord renders one cached decision as a snapshot payload
// (key length-prefixed, decision as JSON — the snapshot path is cold, so
// schema-tolerant JSON beats a hand-rolled layout).
func encodeDecisionRecord(key string, dec *Decision) ([]byte, error) {
	body, err := json.Marshal(dec)
	if err != nil {
		return nil, fmt.Errorf("serve: encode decision record: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteByte(recDecision)
	putString(&buf, key)
	buf.Write(body)
	return buf.Bytes(), nil
}

// decodeDecisionRecord inverts encodeDecisionRecord.
func decodeDecisionRecord(payload []byte) (string, *Decision, error) {
	if len(payload) < 1 || payload[0] != recDecision {
		return "", nil, fmt.Errorf("serve: not a decision record")
	}
	key, rest, ok := readChunk(payload[1:])
	if !ok {
		return "", nil, fmt.Errorf("serve: decision record: truncated key")
	}
	var dec Decision
	if err := json.Unmarshal(rest, &dec); err != nil {
		return "", nil, fmt.Errorf("serve: decision record: %w", err)
	}
	return string(key), &dec, nil
}

// counterSnapshot is the JSON body of a recCounters record: the
// monotonic traffic counters that survive a restart, so /v1/stats
// reports service history rather than process history.
type counterSnapshot struct {
	Requests    uint64 `json:"requests"`
	Solved      uint64 `json:"solved"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	BodyHits    uint64 `json:"body_hits"`
	Deduped     uint64 `json:"deduped"`
}

// encodeCountersRecord renders the traffic counters as a snapshot payload.
func encodeCountersRecord(c *counters) ([]byte, error) {
	body, err := json.Marshal(counterSnapshot{
		Requests:    c.requests.Load(),
		Solved:      c.solved.Load(),
		CacheHits:   c.cacheHits.Load(),
		CacheMisses: c.cacheMisses.Load(),
		BodyHits:    c.bodyHits.Load(),
		Deduped:     c.deduped.Load(),
	})
	if err != nil {
		return nil, fmt.Errorf("serve: encode counters record: %w", err)
	}
	return append([]byte{recCounters}, body...), nil
}

// restoreCountersRecord adds a recCounters payload into the live
// counters (which are zero at boot, so add = restore).
func restoreCountersRecord(payload []byte, c *counters) error {
	if len(payload) < 1 || payload[0] != recCounters {
		return fmt.Errorf("serve: not a counters record")
	}
	var snap counterSnapshot
	if err := json.Unmarshal(payload[1:], &snap); err != nil {
		return fmt.Errorf("serve: counters record: %w", err)
	}
	c.requests.Add(snap.Requests)
	c.solved.Add(snap.Solved)
	c.cacheHits.Add(snap.CacheHits)
	c.cacheMisses.Add(snap.CacheMisses)
	c.bodyHits.Add(snap.BodyHits)
	c.deduped.Add(snap.Deduped)
	return nil
}

// WriteSnapshotRecords streams the server's warm state — interned graphs
// first (so decisions restore against canonical instances), then cached
// decisions oldest-to-newest (so re-putting them on load reproduces LRU
// recency), then the traffic counters — through add, one record per
// call. It is safe to run concurrently with serving: each table is
// copied under its lock and encoded outside it.
func (s *Server) WriteSnapshotRecords(add func([]byte) error) error {
	var err error
	emit := func(rec []byte, encodeErr error) bool {
		if err = encodeErr; err == nil {
			err = add(rec)
		}
		return err == nil
	}
	s.graphs.Dump(func(fp string, g *graph.Graph) bool { return emit(encodeGraphRecord(fp, g)) })
	if err == nil {
		s.cache.Dump(func(key string, ent cachedDecision) bool { return emit(encodeDecisionRecord(key, ent.dec)) })
	}
	if err == nil {
		emit(encodeCountersRecord(&s.st))
	}
	return err
}

// Recover warms the server from recovered durable state: the snapshot's
// graphs, decisions and counters are restored directly, then the journal
// tail is replayed in order, each record as written and not journaled again
// — a round through solveRound with its live members and multiplicities, a
// mutate alone through solveMutation. A round is skipped only when every
// member key is warm, a mutate when its key is, so replay is idempotent.
// Call before Start; undecodable records and failed cells are counted, never
// fatal — recovery prefers a cold key to a dead daemon.
func (s *Server) Recover(ctx context.Context, snapshot, journal [][]byte) RecoveryStats {
	var rs RecoveryStats
	for _, payload := range snapshot {
		if len(payload) == 0 {
			rs.DecodeErrors++
			continue
		}
		switch payload[0] {
		case recGraph:
			fp, g, err := decodeGraphRecord(payload, s.cfg.Limits)
			if err != nil {
				rs.DecodeErrors++
				continue
			}
			s.graphs.GetOrPut(fp, g)
			rs.SnapshotGraphs++
		case recDecision:
			key, dec, err := decodeDecisionRecord(payload)
			if err == nil {
				err = s.publish(key, dec)
			}
			if err != nil {
				rs.DecodeErrors++
				continue
			}
			rs.SnapshotDecisions++
		case recCounters:
			if err := restoreCountersRecord(payload, &s.st); err != nil {
				rs.DecodeErrors++
			}
		default:
			rs.DecodeErrors++
		}
	}
	rs.JournalRecords = len(journal)

	for _, payload := range journal {
		if len(payload) > 0 && payload[0] == recMutate {
			// A mutate record names its base by fingerprint; the walk is in
			// journal order, so the base is already interned (snapshot, an
			// earlier round, or an earlier mutate in this tail) and the
			// mutation resolves as the live request did.
			mreq, params, err := decodeMutate(payload, s.cfg.Limits)
			var m *mutation
			if err == nil {
				m, err = s.resolveMutation(mreq, params)
			}
			if errors.Is(err, ErrUnknownBase) {
				rs.ReplayErrors++
				s.logf("serve: replay mutate: %v: %s", ErrUnknownBase, mreq.Base)
				continue
			}
			if err != nil {
				rs.DecodeErrors++
				continue
			}
			rs.ReplayMutates++
			s.graphs.GetOrPut(m.fp, m.applied.Graph) // a later mutate may name it, warm or not
			if _, warm := s.cache.Get(m.key); warm {
				rs.ReplayWarm++
				continue
			}
			p := newPending(m.key)
			s.accepted.Add(1) // finish releases it, as for a live cell
			s.solveMutation(ctx, p, nil, m)
			rs.tally(p)
			continue
		}
		round, err := decodeRound(payload, s.cfg.Limits, s.b.maxBatch)
		if err != nil {
			rs.DecodeErrors++
			continue
		}
		warm := true
		for _, t := range round {
			s.graphs.GetOrPut(t.fp, t.user.Graph) // a later mutate may name it, warm or not
			_, ok := s.cache.Get(t.p.key)
			warm = warm && ok
		}
		if warm {
			rs.ReplayWarm += len(round)
			continue
		}
		s.accepted.Add(len(round))
		s.solveRound(ctx, round)
		for _, t := range round {
			rs.tally(t.p)
		}
	}
	s.recovery.Store(&rs)
	return rs
}

// tally counts one replayed cell's outcome.
func (rs *RecoveryStats) tally(p *pending) {
	if p.err != nil {
		rs.ReplayErrors++
	} else {
		rs.ReplaySolved++
	}
}
