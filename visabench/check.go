package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"visasim/internal/harness"
)

// digestsJSON holds the reference digests: for each workload, the content
// address of every cell in its budget pool mapped to a digest of the cell's
// Result. Regenerate with -record-digests after a change that is meant to
// alter simulated statistics, never to make a speed-only change pass.
//
//go:embed digests.json
var digestsJSON []byte

// keyLen and digestLen truncate the hex content address and result digest
// kept in digests.json (64 bits each).
const (
	keyLen    = 16
	digestLen = 16
)

// digests maps a truncated content address to a truncated result digest.
type digests map[string]string

func loadDigests(workload string) (digests, error) {
	var all map[string]digests
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := all[workload]
	if !ok || len(d) == 0 {
		return nil, fmt.Errorf("digests.json has no digests for %s", workload)
	}
	return d, nil
}

// resultDigest hashes a cell's Result as the service serializes it.
func resultDigest(res any) (string, error) {
	blob, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])[:digestLen], nil
}

// checkSweep compares every cell's Result with its reference digest and
// returns the keys of the cells that are missing or differ.
func (d digests) checkSweep(sw sweep, res harness.Results) []string {
	var bad []string
	for i, c := range sw.cells {
		r, ok := res[c.Key]
		if !ok || r == nil {
			bad = append(bad, c.Key)
			continue
		}
		got, err := resultDigest(r)
		if err != nil || got != d[sw.hashes[i][:keyLen]] {
			bad = append(bad, c.Key)
		}
	}
	return bad
}

// sameBytes reports the keys whose Results serialize differently in a and b.
func sameBytes(cells []harness.Cell, a, b harness.Results) []string {
	var bad []string
	for _, c := range cells {
		ba, errA := json.Marshal(a[c.Key])
		bb, errB := json.Marshal(b[c.Key])
		if errA != nil || errB != nil || a[c.Key] == nil || !bytes.Equal(ba, bb) {
			bad = append(bad, c.Key)
		}
	}
	return bad
}

// recordDigests simulates every cell of every workload's budget pool locally
// and writes the reference digests to path.
func recordDigests(path string, workers int) error {
	all := map[string]digests{}
	for _, s := range specs {
		d := digests{}
		for v := 0; v < s.pool; v++ {
			cells := s.cells(s.budget(v))
			res, err := harness.Run(cells, harness.Options{Workers: workers})
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			for _, c := range cells {
				h, err := c.Cfg.Hash()
				if err != nil {
					return err
				}
				dg, err := resultDigest(res[c.Key])
				if err != nil {
					return err
				}
				d[h[:keyLen]] = dg
			}
			fmt.Fprintf(os.Stderr, "recorded %s budget %d (%d/%d)\n", s.name, s.budget(v), v+1, s.pool)
		}
		all[s.name] = d
	}
	// MarshalIndent sorts map keys, so a re-recording diffs cleanly.
	return writeJSON(path, all)
}
