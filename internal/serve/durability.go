package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// Durability integration: with Config.Journal set, runRound appends every
// live round — a batcher's, a mutate leader's round of one — as one recRound
// before solving it, and releases it after its last decision is cached and
// before any of its cells wakes: a record a snapshot truncation drops is
// covered by that snapshot, one still in the journal at a crash is replayed
// as written, and a reply implies its record is released. A member is the
// request as accepted: a solve's recAccepted or a mutate's recMutate payload.
// Admission, the warm path and a shed request never touch the journal, except
// that a mutate answered from the cache whose applied graph had left the
// intern table journals its round of one around the re-intern, so replay
// re-interns it too. Records reuse the canonical binary graph codec, so
// replay reproduces the live request's cache key.

// Journal is the write-ahead log the server appends rounds to.
// durable.Store satisfies it structurally; serve stays free of a durable
// dependency so in-memory serving links no storage code.
type Journal interface {
	// Append journals one encoded round, returning a token to
	// pass to Applied once its decisions are published in memory. It must
	// not retain payload: the server reuses the buffer for the next round.
	Append(payload []byte) (uint64, error)
	// Applied releases one appended record for snapshot truncation.
	Applied(token uint64)
}

// Durability record types (first payload byte).
const (
	recAccepted uint8 = 1 // one accepted solve: a round member
	recDecision uint8 = 2 // snapshot: one cached decision
	recGraph    uint8 = 3 // snapshot: one interned graph
	recCounters uint8 = 4 // snapshot: the outcome array and the latency histograms
	recMutate   uint8 = 5 // one accepted mutate: a round member
	recRound    uint8 = 6 // journal: one round, its members and their multiplicities
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
	// ReplayMutates counts mutate members whose delta was re-applied to
	// reconstruct the mutated graph during replay (warm or solved).
	ReplayMutates int `json:"replay_mutates"`
	// ReplayErrors counts replayed requests whose cell failed to solve, plus
	// records with a mutate member whose base is not interned.
	ReplayErrors int `json:"replay_errors"`
	// DecodeErrors counts records that failed to decode (CRC-valid but
	// semantically unusable — version skew or fault injection).
	DecodeErrors int `json:"decode_errors"`
	// RekeyedGraphs counts snapshot graphs whose stored fingerprint is not
	// the one their bytes hash to (written by a build that keyed the graph
	// otherwise); each is interned under the fingerprint of its bytes.
	RekeyedGraphs int `json:"rekeyed_graphs"`
	// StaleDecisions counts snapshot decisions not restored because they
	// name a re-keyed graph by its stale key: their cache key is no longer
	// any request's.
	StaleDecisions int `json:"stale_decisions"`
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
	// AppendErrors counts rounds served without a journal record because
	// the record failed to encode or Append failed (availability over
	// durability).
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

// accepted completes req's graph member into the recAccepted payload of the
// request solved under params, in place: the record type and the float block
// fill the room decodeSolve left ahead of the graph's record, so solve hashes
// the record where it lies (recordFingerprint) and journals the same bytes in
// its round.
func (req *decodedSolve) accepted(params mec.Params) []byte {
	rec := []byte(*req.Graph)
	rec[0] = recAccepted
	blk := floatBlock(params, req.UserOverrides)
	copy(rec[1:acceptedGraphOffset], blk[:])
	return rec
}

// recordFingerprint is the fingerprint (graph.Fingerprint) of rec's graph,
// hashed off the record's own encoding.
func recordFingerprint(rec []byte) (string, error) {
	return graph.FingerprintBinary(rec[acceptedGraphOffset:])
}

// compileRecord compiles a recovered graph record into its view, under the
// live decode path's limits.
func compileRecord(rec []byte, limits DecodeLimits) (*graph.CSR, error) {
	n, m, err := graph.BinaryCounts(rec)
	if err == nil {
		err = limits.check(n, m)
	}
	if err != nil {
		return nil, err
	}
	return graph.CompileBinary(rec)
}

// decodeAccepted inverts accepted into a task of multiplicity 1 in a fresh
// cell keyed as its live request was, its view compiled, applying the live
// decode path's validation (readFloatBlock's checks plus the graph limits).
// It never panics (fuzzed by FuzzRecoverJournal).
func decodeAccepted(payload []byte, limits DecodeLimits) (*solveTask, error) {
	if len(payload) < acceptedGraphOffset || payload[0] != recAccepted {
		return nil, fmt.Errorf("serve: not an accepted record")
	}
	params, o, err := readFloatBlock(payload[1:])
	var v *graph.CSR
	if err == nil {
		v, err = compileRecord(payload[acceptedGraphOffset:], limits)
	}
	var fp string
	if err == nil {
		fp, err = v.Fingerprint()
	}
	if err != nil {
		return nil, fmt.Errorf("serve: accepted record: %w", err)
	}
	user := userInputOf(o)
	user.View = v
	return &solveTask{p: newPending(cacheKey(fp, params, o)), user: user, params: params, pkey: paramsDigest(params), fp: fp, mult: 1}, nil
}

// appendRound appends round's recRound payload to buf: the record type, the
// member count, then per member a length-prefixed chunk of its multiplicity
// and the request as it was accepted — a solve's recAccepted payload or a
// mutate's recMutate payload, whose delta is the JSON json.Marshal writes
// (appendDelta) — lengths and counts little-endian uint32s.
func appendRound(buf []byte, round []*solveTask) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(append(buf, recRound), uint32(len(round)))
	for _, t := range round {
		at := len(buf)
		buf = binary.LittleEndian.AppendUint32(append(buf, 0, 0, 0, 0), uint32(t.mult))
		if t.mutate == nil {
			buf = append(buf, t.rec...)
		} else {
			blk := floatBlock(t.params, t.mutate.UserOverrides)
			buf = binary.LittleEndian.AppendUint32(append(append(buf, recMutate), blk[:]...), uint32(len(t.mutate.Base)))
			var err error
			if buf, err = appendDelta(append(buf, t.mutate.Base...), t.mutate.Delta); err != nil {
				return buf, fmt.Errorf("serve: encode mutate: %w", err)
			}
		}
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	return buf, nil
}

// decodeRound inverts one journal payload, a recRound, into the round it
// replays as: its members, each decoded by its type byte. A multiplicity
// above MaxBatch is clamped as dispatchRound clamps it. rekeyed maps the
// stale keys of re-keyed snapshot graphs to the keys they are interned
// under (see decodeMember); it may be nil.
func (s *Server) decodeRound(payload []byte, rekeyed map[string]string) ([]*solveTask, error) {
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
		t, err := s.decodeMember(member[4:], rekeyed)
		if err != nil {
			return nil, fmt.Errorf("serve: round record: member %d: %w", i, err)
		}
		t.mult = int(min(binary.LittleEndian.Uint32(member), uint32(s.b.maxBatch)))
		round[i], rest = t, next
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("serve: round record: %d trailing bytes", len(rest))
	}
	return round, nil
}

// decodeMember maps one accepted request's payload to a task of
// multiplicity 1 in a fresh cell keyed as its live request was. A recMutate
// is resolved against the intern table as the live request was — the walk is
// in journal order, so its base is already interned (snapshot, or an earlier
// record in the tail); anything else must be a recAccepted. A base that is a
// re-keyed snapshot graph's stale key names that graph: the build that wrote
// the record interned it under that key.
func (s *Server) decodeMember(payload []byte, rekeyed map[string]string) (*solveTask, error) {
	if len(payload) == 0 || payload[0] != recMutate {
		return decodeAccepted(payload, s.cfg.Limits)
	}
	req, params, err := decodeMutate(payload, s.cfg.Limits)
	if err != nil {
		return nil, err
	}
	if fp, ok := rekeyed[req.Base]; ok {
		req.Base = fp
	}
	t, key, err := s.resolveMutation(req, params)
	if err != nil {
		return nil, fmt.Errorf("serve: mutate record: base %s: %w", req.Base, err)
	}
	t.p = newPending(key)
	return t, nil
}

// decodeMutate inverts a recMutate payload as appendRound writes it — the
// record type, the float block, the length-prefixed base fingerprint and the
// delta as JSON — applying the same validation as the live decode path
// (readFloatBlock's checks plus validateMutate).
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

// encodeGraphRecord renders one interned view as a snapshot payload: the
// fingerprint, then the binary encoding of the graph it is the view of.
func encodeGraphRecord(fp string, v *graph.CSR) []byte {
	var buf bytes.Buffer
	buf.WriteByte(recGraph)
	putString(&buf, fp)
	return v.AppendBinary(buf.Bytes())
}

// decodeGraphRecord inverts encodeGraphRecord, compiling the graph's view.
// It returns the view's own fingerprint and the one the record stored: the
// record's bytes, not its stored key, say which graph it is.
func decodeGraphRecord(payload []byte, limits DecodeLimits) (fp, stored string, v *graph.CSR, err error) {
	if len(payload) < 1 || payload[0] != recGraph {
		return "", "", nil, fmt.Errorf("serve: not a graph record")
	}
	key, rest, ok := readChunk(payload[1:])
	if !ok {
		return "", "", nil, fmt.Errorf("serve: graph record: truncated fingerprint")
	}
	if v, err = compileRecord(rest, limits); err == nil {
		fp, err = v.Fingerprint()
	}
	if err != nil {
		return "", "", nil, fmt.Errorf("serve: graph record: %w", err)
	}
	return fp, string(key), v, nil
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

// counterSnapshot is the JSON body of a recCounters record: the outcome
// array and each latency class's histogram, so /v1/stats reports service
// history rather than process history. Each endpoint's arrivals restore as
// the sum of its outcomes, so the books balance after a restart; a request
// in flight at the snapshot is in neither.
type counterSnapshot struct {
	Outcomes Outcomes                   `json:"outcomes"`
	Latency  map[string]histogramRecord `json:"latency"`
}

// histogramRecord is one Histogram as a recCounters record carries it: the
// per-bucket (not cumulative) counts, the count and the microsecond sum.
type histogramRecord struct {
	Buckets [numLatencyBuckets]uint64 `json:"buckets"`
	Count   uint64                    `json:"count"`
	SumUs   uint64                    `json:"sum_us"`
}

// encodeCountersRecord renders the outcome array and the latency histograms
// as a snapshot payload.
func encodeCountersRecord(c *counters) ([]byte, error) {
	snap := counterSnapshot{Outcomes: c.tally(), Latency: make(map[string]histogramRecord, nClass)}
	for cl, name := range classNames {
		h := &c.lat[cl]
		r := histogramRecord{Count: h.count.Load(), SumUs: h.sumUs.Load()}
		for i := range r.Buckets {
			r.Buckets[i] = h.counts[i].Load()
		}
		snap.Latency[name] = r
	}
	body, err := json.Marshal(snap)
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
	for e := range snap.Outcomes {
		for x, n := range snap.Outcomes[e] {
			c.outcomes[e][x].Add(n)
			c.arrivals[e].Add(n)
		}
	}
	for cl, name := range classNames {
		r, h := snap.Latency[name], &c.lat[cl]
		for i, n := range r.Buckets {
			h.counts[i].Add(n)
		}
		h.count.Add(r.Count)
		h.sumUs.Add(r.SumUs)
	}
	return nil
}

// WriteSnapshotRecords streams the server's warm state — interned graphs
// first (so decisions restore against canonical instances), then cached
// decisions oldest-to-newest (so re-putting them on load reproduces LRU
// recency), then the outcome array — through add, one record per
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
	s.graphs.Dump(func(fp string, v *graph.CSR) bool { return emit(encodeGraphRecord(fp, v), nil) })
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
// tail is replayed in order, each record as written and not journaled again:
// decodeRound maps it to its round — the live members and multiplicities —
// and solveRound solves it. A round is skipped only when every member key is warm, so
// replay is idempotent. A snapshot graph whose stored key is stale is
// interned under its bytes' fingerprint; journal records that name the stale
// key as a mutate base still resolve to it, while a live request naming it
// does not, and a snapshot decision of the stale key, which no request can
// reach, is dropped.
// Call before Start; undecodable records and failed cells are counted, never
// fatal — recovery prefers a cold key to a dead daemon.
func (s *Server) Recover(ctx context.Context, snapshot, journal [][]byte) RecoveryStats {
	var rs RecoveryStats
	var rekeyed map[string]string // stale key → the key interned under
	for _, payload := range snapshot {
		if len(payload) == 0 {
			rs.DecodeErrors++
			continue
		}
		switch payload[0] {
		case recGraph:
			fp, stored, v, err := decodeGraphRecord(payload, s.cfg.Limits)
			if err != nil {
				rs.DecodeErrors++
				continue
			}
			if stored != fp {
				if rekeyed == nil {
					rekeyed = make(map[string]string)
				}
				rekeyed[stored] = fp
				rs.RekeyedGraphs++
			}
			s.graphs.GetOrPut(fp, v)
			rs.SnapshotGraphs++
		case recDecision:
			key, dec, err := decodeDecisionRecord(payload)
			if err == nil {
				// Graph records precede decisions, so rekeyed is complete.
				if _, ok := rekeyed[dec.Graph]; ok {
					rs.StaleDecisions++
					continue
				}
				_, err = s.publish(key, dec)
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
		round, err := s.decodeRound(payload, rekeyed)
		if errors.Is(err, ErrUnknownBase) {
			rs.ReplayErrors++
			s.logf("serve: replay: %v", err)
			continue
		}
		if err != nil {
			rs.DecodeErrors++
			continue
		}
		warm := true
		for _, t := range round {
			if t.applied != nil {
				rs.ReplayMutates++
			}
			s.intern(t) // a later mutate may name it, warm or not
			_, ok := s.cache.Get(t.p.key)
			warm = warm && ok
		}
		if warm {
			rs.ReplayWarm += len(round)
			continue
		}
		s.accepted.Add(len(round))
		s.solveRound(ctx, round, func() {})
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
