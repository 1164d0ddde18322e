package gen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// answer renders rows the way flowserve answers POST /jobs?wait=1: an
// indented document with the rows in any order.
func answer(t *testing.T, rows []string) []byte {
	t.Helper()
	raw := []byte(fmt.Sprintf(`{"id": 7, "rows": [%s]}`, strings.Join(rows, ",")))
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckCatchesOneChangedRow: a correct answer passes in any row order,
// and an answer with one row changed, missing or duplicated fails.
func TestCheckCatchesOneChangedRow(t *testing.T) {
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			job := w.Job(1, 0)
			if len(job.Expected) < 2 {
				t.Fatalf("only %d expected rows; the check would be weak", len(job.Expected))
			}
			want := Expect(job.Expected)

			reversed := make([]string, len(job.Expected))
			for i, r := range job.Expected {
				reversed[len(reversed)-1-i] = r
			}
			if id, err := want.Check(answer(t, reversed)); err != nil || id != 7 {
				t.Fatalf("correct answer: id %d, err %v", id, err)
			}

			mid := len(job.Expected) / 2
			last := strings.LastIndexByte(job.Expected[mid], ',')
			changed := append([]string(nil), job.Expected...)
			changed[mid] = job.Expected[mid][:last] + ",-1]"
			bad := map[string][]string{
				"changed":    changed,
				"missing":    job.Expected[1:],
				"duplicated": append(append([]string(nil), job.Expected...), job.Expected[mid]),
			}
			for name, rows := range bad {
				if _, err := want.Check(answer(t, rows)); err == nil {
					t.Errorf("%s row: the check passed", name)
				}
			}
		})
	}
}

// TestJobsAreDeterministicAndDistinct: a seed and index fix the document;
// another index gives another document, and plan-storm scripts differ too,
// so neither plan-cache level can hit.
func TestJobsAreDeterministicAndDistinct(t *testing.T) {
	for _, w := range Workloads() {
		a, b, c := w.Job(3, 1), w.Job(3, 1), w.Job(3, 2)
		if !bytes.Equal(a.Doc, b.Doc) || strings.Join(a.Expected, "\n") != strings.Join(b.Expected, "\n") {
			t.Errorf("%s: same seed and index gave different jobs", w.Name)
		}
		if bytes.Equal(a.Doc, c.Doc) {
			t.Errorf("%s: indices 1 and 2 gave the same document", w.Name)
		}
		var da, dc struct {
			Script string `json:"script"`
		}
		if err := json.Unmarshal(a.Doc, &da); err != nil {
			t.Fatalf("%s: document is not JSON: %v", w.Name, err)
		}
		if err := json.Unmarshal(c.Doc, &dc); err != nil {
			t.Fatal(err)
		}
		if differ := da.Script != dc.Script; differ != (w.Name == "plan-storm") {
			t.Errorf("%s: scripts differ between documents: %v", w.Name, differ)
		}
	}
}
