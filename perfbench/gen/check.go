package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
)

// rowsOf decodes a POST /jobs?wait=1 answer and returns its job ID and
// its rows in canonical form (compact JSON), sorted.
func rowsOf(body []byte) (int64, []string, error) {
	var resp struct {
		ID   int64             `json:"id"`
		Rows []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, nil, fmt.Errorf("gen: decoding response: %w", err)
	}
	rows := make([]string, len(resp.Rows))
	var buf bytes.Buffer
	for i, raw := range resp.Rows {
		buf.Reset()
		if err := json.Compact(&buf, raw); err != nil {
			return resp.ID, nil, fmt.Errorf("gen: row %d: %w", i, err)
		}
		rows[i] = buf.String()
	}
	sort.Strings(rows)
	return resp.ID, rows, nil
}

// Want stands in for a job's expected rows: their count and the digest of
// the sorted canonical rows. The rows of a run's documents would take
// hundreds of megabytes.
type Want struct {
	Rows   int
	Digest [sha256.Size]byte
}

// Expect summarizes sorted canonical rows as a Want.
func Expect(rows []string) Want {
	return Want{Rows: len(rows), Digest: digest(rows)}
}

// Check compares a job's answer with the expected rows as a sorted
// multiset and returns the job ID.
func (w Want) Check(body []byte) (int64, error) {
	id, got, err := rowsOf(body)
	if err != nil {
		return id, err
	}
	if len(got) != w.Rows {
		return id, fmt.Errorf("gen: job %d returned %d rows, want %d", id, len(got), w.Rows)
	}
	if digest(got) != w.Digest {
		return id, fmt.Errorf("gen: job %d: rows differ from the expected result", id)
	}
	return id, nil
}

func digest(rows []string) [sha256.Size]byte {
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}
