package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"delorean/internal/runner"
)

// refs.json holds, per workload-input seed (1..refPool), the SHA-256 of
// every record-save container and of every rendered figures table. The
// simulator is deterministic, so any change to these bytes is a change
// in simulated behaviour or in the container format, and the op that
// produced it fails instead of scoring. Regenerate with
//
//	go run . -write-refs refs.json
//
// only when such a change is intended.
//
//go:embed refs.json
var refsJSON []byte

type refSet struct {
	RecordSave map[string]map[string]string `json:"record-save"`
	Figures    map[string]map[string]string `json:"figures"`
}

func loadRefs() (refSet, error) {
	return parseRefs(refsJSON)
}

func parseRefs(b []byte) (refSet, error) {
	var r refSet
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("reference hashes: %w", err)
	}
	return r, nil
}

func regenerateRefs(path string) error {
	seeds := make([]uint64, refPool)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	rs, err := runner.Map(gomaxprocs, len(seeds), func(i int) (map[string]string, error) {
		b := rsBundle(seeds[i])
		outs, err := recordSaveOp(b, nil, seeds[i], 0, nil)
		if err != nil {
			return nil, err
		}
		m := map[string]string{}
		for j, in := range b {
			m[in.key] = outs[j].hash
		}
		return m, nil
	})
	if err != nil {
		return err
	}
	// Figure ops already fan out on gomaxprocs workers; run seeds in turn.
	refs := refSet{RecordSave: map[string]map[string]string{}, Figures: map[string]map[string]string{}}
	for i, s := range seeds {
		refs.RecordSave[fmt.Sprint(s)] = rs[i]
		fo, err := figuresOp(s, nil, 0, nil)
		if err != nil {
			return err
		}
		refs.Figures[fmt.Sprint(s)] = fo.hashes
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
