package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// Durability integration: when Config.Journal is set, every accepted
// leader request is journaled before its solve can start (write-ahead), and
// the journal token is released in finish only after the solved decision
// is published to the cache — so any record a snapshot truncation drops
// is provably covered by that snapshot, and any record still in the
// journal at a crash is replayed on the next boot. The warm path (cache
// hits, followers) never touches the journal, keeping the hot-path cost
// of durability to one append per distinct cold request.
//
// The record payloads reuse the canonical binary graph codec, so a
// journal record carries exactly the identity the cache keys on:
// replaying it reproduces the same requestKey the live request had.

// Journal is the write-ahead log the server appends accepted requests
// to. durable.Store satisfies it structurally; serve stays free of a
// durable dependency so in-memory serving links no storage code.
type Journal interface {
	// Append journals one encoded accepted request, returning a token to
	// pass to Applied once the decision is published in memory.
	Append(payload []byte) (uint64, error)
	// Applied releases one appended record for snapshot truncation.
	Applied(token uint64)
}

// Durability record types (first payload byte).
const (
	recAccepted uint8 = 1 // journal: one accepted request
	recDecision uint8 = 2 // snapshot: one cached decision
	recGraph    uint8 = 3 // snapshot: one interned graph
	recCounters uint8 = 4 // snapshot: monotonic traffic counters
	recMutate   uint8 = 5 // journal: one accepted graph mutation
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
	// ReplayWarm counts journal records whose key the restored cache (or
	// an earlier replayed record) already covered.
	ReplayWarm int `json:"replay_warm"`
	// ReplaySolved counts journal records re-solved into the cache.
	ReplaySolved int `json:"replay_solved"`
	// ReplayMutates counts mutate records whose delta was re-applied to
	// reconstruct the mutated graph during replay (warm or solved).
	ReplayMutates int `json:"replay_mutates"`
	// ReplayErrors counts replay rounds that failed to solve.
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
	// AppendErrors counts accepted requests served without a journal
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

// readString inverts putString at the head of b, returning the string and
// the bytes after it; ok is false when b is too short for either.
func readString(b []byte) (s string, rest []byte, ok bool) {
	if len(b) < 4 {
		return "", nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	if int64(n) > int64(len(b)-4) {
		return "", nil, false
	}
	return string(b[4 : 4+n]), b[4+n:], true
}

// A recAccepted payload is the record type, the float block, and the
// canonical binary graph. A request's graph is encoded once: newAcceptedRecord
// writes it into a buffer of exactly the payload's size, recordFingerprint
// hashes it there, and sealAccepted, once the request turns out to be a
// leader with a journal to write to, completes the same buffer into the
// payload.

// acceptedGraphOffset is where a recAccepted payload's graph starts.
const acceptedGraphOffset = 1 + floatBlockLen

// newAcceptedRecord returns g's recAccepted payload with the float block
// still blank.
func newAcceptedRecord(g *graph.Graph) []byte {
	rec := make([]byte, acceptedGraphOffset, acceptedGraphOffset+g.BinarySize())
	rec[0] = recAccepted
	return g.AppendBinary(rec)
}

// recordFingerprint is the fingerprint (graph.Fingerprint) of rec's graph.
func recordFingerprint(rec []byte) string {
	sum := sha256.Sum256(rec[acceptedGraphOffset:])
	return hex.EncodeToString(sum[:])
}

// sealAccepted fills rec's float block and returns rec, now a complete
// payload.
func sealAccepted(rec []byte, params mec.Params, o UserOverrides) []byte {
	blk := floatBlock(params, o)
	copy(rec[1:], blk[:])
	return rec
}

// decodeAccepted inverts sealAccepted, applying the same validation as
// the live decode path (readFloatBlock's checks plus the graph limits). It
// never panics (fuzzed by FuzzJournalReplay in the durable package's
// integration tests and exercised by recovery).
func decodeAccepted(payload []byte, limits DecodeLimits) (*SolveRequest, mec.Params, error) {
	if len(payload) < acceptedGraphOffset || payload[0] != recAccepted {
		return nil, mec.Params{}, fmt.Errorf("serve: not an accepted record")
	}
	params, o, err := readFloatBlock(payload[1:])
	if err != nil {
		return nil, mec.Params{}, fmt.Errorf("serve: accepted record: %w", err)
	}
	g, err := graph.ReadBinary(bytes.NewReader(payload[acceptedGraphOffset:]))
	if err != nil {
		return nil, mec.Params{}, fmt.Errorf("serve: accepted record: %w", err)
	}
	if err := limits.check(g); err != nil {
		return nil, mec.Params{}, fmt.Errorf("serve: accepted record: %w", err)
	}
	return &SolveRequest{Graph: g, UserOverrides: o}, params, nil
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
	base, rest, ok := readString(payload[1+floatBlockLen:])
	if !ok {
		return nil, mec.Params{}, fmt.Errorf("serve: mutate record: truncated fingerprint")
	}
	req := &MutateRequest{Base: base, Delta: new(graph.Delta), UserOverrides: o}
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
	fp, rest, ok := readString(payload[1:])
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
	return fp, g, nil
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
	key, rest, ok := readString(payload[1:])
	if !ok {
		return "", nil, fmt.Errorf("serve: decision record: truncated key")
	}
	var dec Decision
	if err := json.Unmarshal(rest, &dec); err != nil {
		return "", nil, fmt.Errorf("serve: decision record: %w", err)
	}
	return key, &dec, nil
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
// tail — accepted requests whose decisions never reached a snapshot — is
// replayed through the shared session in admission-sized rounds. Records
// whose key is already warm are skipped (journal replay is idempotent:
// segments blocked from truncation replay again harmlessly). Call before
// Start, before the server accepts traffic; undecodable records and
// failed rounds are counted, never fatal — recovery prefers a cold key
// to a dead daemon.
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
			if err != nil {
				rs.DecodeErrors++
				continue
			}
			s.publish(key, dec)
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

	// Decode the journal tail, dropping records already warm (restored by
	// the snapshot or duplicated within the tail), then re-solve the rest
	// grouped by params digest — the same rounds the batcher would have
	// formed — so replayed decisions carry live contention figures.
	type replayItem struct {
		key    string
		fp     string
		req    *SolveRequest
		params mec.Params
	}
	seen := make(map[string]bool)
	groups := make(map[string][]replayItem)
	var order []string
	for _, payload := range journal {
		var (
			req    *SolveRequest
			params mec.Params
			err    error
		)
		if len(payload) > 0 && payload[0] == recMutate {
			// A mutate record names its base by fingerprint; the walk is in
			// journal order, so the base is already interned (snapshot, an
			// earlier accepted record, or an earlier mutate in this tail)
			// and the delta re-applies to reconstruct the mutated graph.
			var mreq *MutateRequest
			mreq, params, err = decodeMutate(payload, s.cfg.Limits)
			if err != nil {
				rs.DecodeErrors++
				continue
			}
			base, ok := s.graphs.Get(mreq.Base)
			if !ok {
				rs.ReplayErrors++
				s.logf("serve: replay mutate: %v: %s", ErrUnknownBase, mreq.Base)
				continue
			}
			if req, err = mutatedRequest(mreq, base, s.cfg.Limits); err != nil {
				rs.DecodeErrors++
				continue
			}
			rs.ReplayMutates++
		} else {
			if req, params, err = decodeAccepted(payload, s.cfg.Limits); err != nil {
				rs.DecodeErrors++
				continue
			}
		}
		key, fp, err := requestKey(req, params)
		if err != nil {
			rs.DecodeErrors++
			continue
		}
		// Intern before the warm-skip: a later mutate record may name this
		// record's graph as its base even when the decision itself is warm.
		req.Graph, _ = s.graphs.GetOrPut(fp, req.Graph)
		if _, warm := s.cache.Get(key); warm || seen[key] {
			rs.ReplayWarm++
			continue
		}
		seen[key] = true
		pk := paramsDigest(params)
		if _, ok := groups[pk]; !ok {
			order = append(order, pk)
		}
		groups[pk] = append(groups[pk], replayItem{key: key, fp: fp, req: req, params: params})
	}

	maxBatch := s.b.maxBatch
	for _, pk := range order {
		items := groups[pk]
		for len(items) > 0 {
			round := items
			if len(round) > maxBatch {
				round = round[:maxBatch]
			}
			items = items[len(round):]
			users := make([]core.UserInput, len(round))
			for i, it := range round {
				users[i] = userInputOf(it.req)
			}
			sol, err := s.sess.SolveWithParams(ctx, users, round[0].params)
			if err != nil {
				rs.ReplayErrors++
				s.logf("serve: replay round of %d users failed: %v", len(users), err)
				continue
			}
			for i, it := range round {
				s.publish(it.key, decisionFor(it.fp, sol, i, len(users)))
				rs.ReplaySolved++
			}
		}
	}
	s.recovery.Store(&rs)
	return rs
}
