package service

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/journal"
)

// TestSubmitWithMatchesOneSpecBatch drives the same four submissions — a
// fresh job, a dedup onto it, a cache hit, and a refusal after the
// journal closed — through SubmitWith on one service and one-spec
// SubmitBatch calls on another. Both must return the same submissions,
// write the same journal bytes, and move every counter but batch_* the
// same way after each step.
func TestSubmitWithMatchesOneSpecBatch(t *testing.T) {
	type step struct {
		Sub  Submission
		Err  string
		Snap Snapshot
	}
	drive := func(batch bool) ([]step, []byte) {
		jn, _ := openJournal(t, t.TempDir())
		br := newBlockingRunner()
		s := New(Config{Workers: 1, Runner: br.run, Journal: jn})
		defer shutdown(t, s)
		defer close(br.release)

		// Seed the cache through recovery, which journals nothing.
		cached := mustNormalize(t, tinySpec(2))
		result, err := json.Marshal(stubResult(cached))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recover(&journal.Recovery{Jobs: []*journal.JobState{{
			ID: "job-000001", Fingerprint: cached.Fingerprint(), State: journal.TypeDone, Result: result,
		}}}); err != nil {
			t.Fatalf("Recover: %v", err)
		}

		var steps []step
		submit := func(spec Spec) {
			var st step
			var err error
			if batch {
				rs := s.SubmitBatch([]Spec{spec}, SubmitOptions{})
				if len(rs) != 1 {
					t.Fatalf("one-spec batch returned %d results", len(rs))
				}
				st.Sub, err = rs[0].Submission, rs[0].Err
			} else {
				st.Sub, err = s.SubmitWith(spec, SubmitOptions{})
			}
			if err != nil {
				st.Err = err.Error()
			}
			// Counters only: the batch pair is expected to differ, and the
			// gauges race the worker picking the fresh job up.
			st.Snap = s.Snapshot()
			st.Snap.BatchRequests, st.Snap.BatchSpecs = 0, 0
			st.Snap.QueueDepth, st.Snap.QueueNormal, st.Snap.BusyWorkers, st.Snap.WorkerUtilization = 0, 0, 0, 0
			st.Snap.Engine = engine.Totals{}
			steps = append(steps, st)
		}
		submit(tinySpec(1))
		<-br.started // the started record is journaled before the run begins
		submit(tinySpec(1))
		submit(tinySpec(2))
		if err := jn.Close(); err != nil {
			t.Fatal(err)
		}
		submit(tinySpec(3))

		if batch {
			if snap := s.Snapshot(); snap.BatchRequests != 4 || snap.BatchSpecs != 4 {
				t.Errorf("batch counters = %d requests / %d specs, want 4/4", snap.BatchRequests, snap.BatchSpecs)
			}
		} else if snap := s.Snapshot(); snap.BatchRequests != 0 || snap.BatchSpecs != 0 {
			t.Errorf("SubmitWith moved the batch counters: %d/%d", snap.BatchRequests, snap.BatchSpecs)
		}
		data, err := os.ReadFile(jn.Path())
		if err != nil {
			t.Fatal(err)
		}
		return steps, data
	}

	single, singleJournal := drive(false)
	batch, batchJournal := drive(true)

	fresh, dedup, hit, refused := single[0], single[1], single[2], single[3]
	if fresh.Err != "" || fresh.Sub.ID != "job-000002" || fresh.Sub.State != StateQueued {
		t.Errorf("fresh submission = %+v (err %q)", fresh.Sub, fresh.Err)
	}
	if !dedup.Sub.Deduped || dedup.Sub.ID != fresh.Sub.ID {
		t.Errorf("dedup submission = %+v, want attached to %s", dedup.Sub, fresh.Sub.ID)
	}
	if !hit.Sub.CacheHit || hit.Sub.State != StateDone {
		t.Errorf("cache-hit submission = %+v", hit.Sub)
	}
	if refused.Err == "" || refused.Sub != (Submission{}) {
		t.Errorf("submission after journal close = %+v (err %q), want a refusal", refused.Sub, refused.Err)
	}
	for i := range single {
		if !reflect.DeepEqual(single[i], batch[i]) {
			t.Errorf("step %d: SubmitWith and one-spec SubmitBatch differ:\n single %+v\n batch  %+v", i, single[i], batch[i])
		}
	}
	if string(singleJournal) != string(batchJournal) {
		t.Errorf("journals differ:\n single %s\n batch  %s", singleJournal, batchJournal)
	}
	if n := bytes.Count(singleJournal, []byte("\n")); n != 2 {
		t.Errorf("journal holds %d records, want 2 (submitted + started):\n%s", n, singleJournal)
	}
}

// TestRecoverSharedFingerprintRerunsBoth replays two incomplete journaled
// jobs with one fingerprint: both re-run under their own IDs, the first
// stays the in-flight holder a new identical submission dedups onto,
// and recovery itself counts no acceptance or cache miss.
func TestRecoverSharedFingerprintRerunsBoth(t *testing.T) {
	spec := mustNormalize(t, tinySpec(4))
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	br := newBlockingRunner()
	s := New(Config{Workers: 2, Runner: br.run})
	defer shutdown(t, s)
	n, err := s.Recover(&journal.Recovery{Jobs: []*journal.JobState{
		{ID: "job-000003", Fingerprint: spec.Fingerprint(), Spec: rawSpec, State: journal.TypeSubmitted},
		{ID: "job-000005", Fingerprint: spec.Fingerprint(), Spec: rawSpec, State: journal.TypeStarted},
	}})
	if err != nil || n != 2 {
		t.Fatalf("Recover = %d, %v; want 2 requeued", n, err)
	}
	sub := mustSubmit(t, s, spec)
	if !sub.Deduped || sub.ID != "job-000003" {
		t.Errorf("resubmission = %+v, want deduped onto job-000003", sub)
	}
	close(br.release)
	for _, id := range []string{"job-000003", "job-000005"} {
		if v := waitState(t, s, id, StateDone); !v.Recovered {
			t.Errorf("%s not flagged recovered", id)
		}
	}
	if got := br.runs.Load(); got != 2 {
		t.Errorf("runner ran %d times, want 2", got)
	}
	snap := s.Snapshot()
	if snap.JobsRecovered != 2 || snap.JobsAccepted != 1 || snap.Deduped != 1 || snap.CacheMisses != 0 {
		t.Errorf("counters: recovered %d accepted %d deduped %d misses %d; want 2/1/1/0",
			snap.JobsRecovered, snap.JobsAccepted, snap.Deduped, snap.CacheMisses)
	}
}
