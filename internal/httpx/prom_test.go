package httpx

import (
	"errors"
	"strings"
	"testing"
)

func TestWritePromText(t *testing.T) {
	var b strings.Builder
	err := WriteProm(&b, []Metric{
		Counter("scrubd_jobs_total", "Jobs run.", 3),
		Gauge("scrubd_age_seconds", "Seconds since the last sweep (-1 = never).", -1),
		Gauge("scrubd_sim_seconds", "Simulated seconds.", 1.5e9),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "# HELP scrubd_jobs_total Jobs run.\n" +
		"# TYPE scrubd_jobs_total counter\n" +
		"scrubd_jobs_total 3\n" +
		"# HELP scrubd_age_seconds Seconds since the last sweep (-1 = never).\n" +
		"# TYPE scrubd_age_seconds gauge\n" +
		"scrubd_age_seconds -1\n" +
		"# HELP scrubd_sim_seconds Simulated seconds.\n" +
		"# TYPE scrubd_sim_seconds gauge\n" +
		"scrubd_sim_seconds 1.5e+09\n"
	if got := b.String(); got != want {
		t.Errorf("exposition text:\n%s\nwant:\n%s", got, want)
	}
}

// failAfter accepts n writes, then fails every later one.
type failAfter struct {
	n, writes int
}

var errSink = errors.New("sink closed")

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errSink
	}
	return len(p), nil
}

func TestWritePromStopsAtWriteError(t *testing.T) {
	w := &failAfter{n: 1}
	err := WriteProm(w, []Metric{
		Counter("a_total", "A.", 1),
		Counter("b_total", "B.", 2),
		Counter("c_total", "C.", 3),
	})
	if !errors.Is(err, errSink) {
		t.Fatalf("error %v, want %v", err, errSink)
	}
	if w.writes != 2 {
		t.Errorf("%d writes attempted, want 2 (stop at the first failure)", w.writes)
	}
}
