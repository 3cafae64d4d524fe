// Package journal is scrubd's write-ahead job journal: an append-only
// JSONL file of CRC-guarded lifecycle records, fsync'd per append, that
// lets a restarted daemon reconstruct every job the crashed incarnation
// had accepted. The paper's scrub mechanisms exist to keep memory from
// losing data under errors; the serving stack holds itself to the same
// bar — a crash must not silently drop accepted work.
//
// Wire format: one record per line,
//
//	{"crc":"<crc32c hex of rec bytes>","rec":{...Record...}}
//
// The CRC covers the exact bytes of the rec object as written, so a torn
// or bit-flipped line is detected without re-canonicalising JSON. A
// truncated or corrupt tail (the expected shape of a crash mid-append)
// is repaired on open: the file is truncated back to the end of the last
// valid record and replay reports how many records were dropped.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/httpx"
)

// Type enumerates the journal's record kinds.
type Type string

// Lifecycle record types. submitted/started/done/failed/cancelled track
// the job state machine; plan and shard-done checkpoint a replicated
// campaign so a restart resumes from completed shards instead of
// re-running them.
const (
	TypeSubmitted Type = "submitted"
	TypeStarted   Type = "started"
	TypePlan      Type = "plan"
	TypeShardDone Type = "shard-done"
	TypeDone      Type = "done"
	TypeFailed    Type = "failed"
	TypeCancelled Type = "cancelled"
)

// Fleet control-plane record types. They track device *specifications*,
// not device state: a restarted daemon re-registers each journaled device
// (same spec, same seed) and recomputes its trajectory, mirroring how
// corrupt shard checkpoints silently recompute. Job carries the device
// ID; fleet-device carries the registration spec in Spec, fleet-patrol
// carries the latest patrol configuration in Payload, and fleet-remove
// drops the device from recovery.
const (
	TypeFleetDevice Type = "fleet-device"
	TypeFleetPatrol Type = "fleet-patrol"
	TypeFleetRemove Type = "fleet-remove"
)

// Fleet reports whether the record type belongs to the fleet control
// plane rather than the job lifecycle.
func (t Type) Fleet() bool {
	return t == TypeFleetDevice || t == TypeFleetPatrol || t == TypeFleetRemove
}

// Terminal reports whether the record type ends a job's lifecycle.
func (t Type) Terminal() bool {
	return t == TypeDone || t == TypeFailed || t == TypeCancelled
}

// ShardRange identifies one contiguous replica range of a sharded
// campaign: replicas [First, First+Count).
type ShardRange struct {
	First int `json:"first"`
	Count int `json:"count"`
}

// Record is one journal entry. Which fields are meaningful depends on
// Type: submitted carries Fingerprint+Spec, plan carries Plan,
// shard-done carries Shard+Payload (the wire-form shard result), done
// carries Payload (the encoded job result), failed carries Error.
type Record struct {
	Seq  uint64 `json:"seq"`
	Type Type   `json:"type"`
	Job  string `json:"job"`

	Fingerprint string          `json:"fp,omitempty"`
	Spec        json.RawMessage `json:"spec,omitempty"`
	Plan        []ShardRange    `json:"plan,omitempty"`
	Shard       *ShardRange     `json:"shard,omitempty"`
	Payload     json.RawMessage `json:"payload,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// envelope is the on-disk line: the record bytes plus their checksum.
type envelope struct {
	CRC string          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// castagnoli is the CRC polynomial used for record guards (same choice
// as iSCSI/ext4: better error detection than IEEE for short payloads).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FileName is the journal file created inside the journal directory.
const FileName = "scrubd.journal"

// Journal is an open, appendable write-ahead journal. Append is safe for
// concurrent use; every record is flushed and fsync'd before Append
// returns, so an acknowledged record survives kill -9.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	seq  uint64
	path string

	appended atomic.Int64
	synced   atomic.Int64
	batches  atomic.Int64
}

// Open opens (creating if needed) the journal in dir, replays every
// valid record already present, repairs a corrupt or truncated tail by
// truncating back to the last valid record, and returns the journal
// positioned for appending plus the replayed recovery state.
func Open(dir string) (*Journal, *Recovery, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("journal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: create dir: %w", err)
	}
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open: %w", err)
	}
	rec, goodEnd, err := replayFile(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Repair the tail: drop any bytes after the last valid record so the
	// next append starts on a clean line boundary.
	if err := f.Truncate(goodEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: truncate corrupt tail: %w", err)
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek: %w", err)
	}
	j := &Journal{f: f, seq: rec.maxSeq, path: path}
	return j, rec, nil
}

// Path returns the journal file's path.
func (j *Journal) Path() string { return j.path }

// Append assigns the record a sequence number, writes it with its CRC
// guard, and fsyncs before returning. An error means the record may not
// be durable; callers should refuse the action the record covers.
func (j *Journal) Append(rec Record) error {
	return j.AppendBatch([]Record{rec})
}

// AppendBatch group-commits records: every record is sequenced and
// written, then the whole group is made durable with ONE fsync. This is
// the batch-submission fast path — N accepted jobs cost one disk flush
// instead of N — and it preserves Append's guarantee: when AppendBatch
// returns nil, every record in the group survives kill -9. On error none
// of the records should be trusted; callers must refuse the actions they
// cover. An empty batch is a no-op.
func (j *Journal) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	var buf bytes.Buffer
	for i := range recs {
		j.seq++
		recs[i].Seq = j.seq
		raw, err := json.Marshal(recs[i])
		if err != nil {
			return fmt.Errorf("journal: encode record: %w", err)
		}
		env := envelope{
			CRC: fmt.Sprintf("%08x", crc32.Checksum(raw, castagnoli)),
			Rec: raw,
		}
		line, err := json.Marshal(env)
		if err != nil {
			return fmt.Errorf("journal: encode envelope: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.appended.Add(int64(len(recs)))
	j.synced.Add(1)
	if len(recs) > 1 {
		j.batches.Add(1)
	}
	return nil
}

// Appended returns the number of records durably appended by this
// process (not counting records replayed from a previous incarnation).
func (j *Journal) Appended() int64 { return j.appended.Load() }

// Fsyncs returns the number of fsyncs issued; with group commit it can
// be far below Appended.
func (j *Journal) Fsyncs() int64 { return j.synced.Load() }

// GroupCommits returns how many multi-record batches were committed with
// a single fsync.
func (j *Journal) GroupCommits() int64 { return j.batches.Load() }

// Close flushes and closes the journal file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// WritePrometheus renders the journal's counters in the Prometheus text
// format; scrubd appends it to /metrics on journaled nodes.
func (j *Journal) WritePrometheus(out io.Writer, rec *Recovery) error {
	metrics := []httpx.Metric{
		httpx.Counter("scrubd_journal_records_total", "Journal records durably appended by this process.", float64(j.Appended())),
		httpx.Counter("scrubd_journal_fsyncs_total", "Journal fsyncs issued.", float64(j.synced.Load())),
		httpx.Counter("scrubd_journal_group_commits_total", "Multi-record batches committed with a single fsync.", float64(j.batches.Load())),
	}
	if rec != nil {
		metrics = append(metrics,
			httpx.Counter("scrubd_journal_replayed_records_total", "Valid records replayed from the previous incarnation at boot.", float64(rec.Records)),
			httpx.Counter("scrubd_journal_skipped_records_total", "Corrupt or truncated records dropped during replay.", float64(rec.Skipped)),
		)
	}
	return httpx.WriteProm(out, metrics)
}

// replayFile scans the file from the start, returning the recovery state
// and the byte offset just past the last valid record.
func replayFile(f *os.File) (*Recovery, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("journal: seek: %w", err)
	}
	rec := newRecovery()
	var goodEnd int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxRecordBytes)
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line)) + 1 // +1 for the newline Scan strips
		r, ok := decodeLine(line)
		if !ok {
			// A bad line is treated as the crash-torn tail: everything
			// from here on is dropped and the file is truncated back to
			// goodEnd. Counting the remainder keeps the damage visible.
			rec.Skipped++
			for sc.Scan() {
				rec.Skipped++
			}
			return rec, goodEnd, nil
		}
		rec.apply(r)
		goodEnd += lineLen
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			// An over-long line is tail corruption, not a fatal journal.
			rec.Skipped++
			return rec, goodEnd, nil
		}
		return nil, 0, fmt.Errorf("journal: scan: %w", err)
	}
	return rec, goodEnd, nil
}

// maxRecordBytes bounds one journal line. Result payloads for the
// largest campaigns are a few MB; 64 MB is comfortably past any real
// record while still catching runaway corruption.
const maxRecordBytes = 64 << 20

// decodeLine parses and CRC-checks one journal line.
func decodeLine(line []byte) (Record, bool) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return Record{}, false
	}
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Record{}, false
	}
	if fmt.Sprintf("%08x", crc32.Checksum(env.Rec, castagnoli)) != env.CRC {
		return Record{}, false
	}
	var r Record
	if err := json.Unmarshal(env.Rec, &r); err != nil {
		return Record{}, false
	}
	if r.Type == "" || r.Job == "" {
		return Record{}, false
	}
	return r, true
}
