package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny is an even smaller scale than Quick so the whole registry can run
// in CI time.
var tiny = Scale{
	Name: "tiny", Sites: 2, Clients: 2, Rounds: 2,
	YCSBRows: 1500, CHOrders: 6, TwitterUsers: 150,
	Duration: 600 * time.Millisecond, Repeats: 1,
}

func TestFindAndRegistry(t *testing.T) {
	if len(All) != 18 {
		t.Errorf("registry has %d experiments", len(All))
	}
	seen := map[string]bool{}
	for _, e := range All {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, ok := Find(e.ID); !ok {
			t.Errorf("Find(%s) failed", e.ID)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find of unknown id succeeded")
	}
}

func TestFig3ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The gating check is the bytes an update writes, which no amount of
	// host load can move; the wall-clock comparison is printed, not asserted.
	if !strings.Contains(out, "row cheaper for updates = true") {
		t.Errorf("update shape broken:\n%s", out)
	}
	if strings.Count(out, "column speedup") != 2 {
		t.Errorf("missing scan sections:\n%s", out)
	}
}

func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-long; skipped with -short")
	}
	for _, e := range All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			// Experiments that emit artifact files write into a scratch dir.
			t.Setenv("PROTEUS_OVERLOAD_BENCH_PATH", filepath.Join(t.TempDir(), "BENCH_overload.json"))
			var buf bytes.Buffer
			if err := e.Run(&buf, tiny); err != nil {
				t.Fatalf("%s: %v\n%s", e.ID, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
	}
}
