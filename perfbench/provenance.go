package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// provenance describes the machine, toolchain and source a result came
// from. It is gathered after the run.
func provenance(o opts) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default"
	}
	p := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       gogc,
		"go_version": runtime.Version(),
		"git_rev":    "unknown",
		"git_dirty":  "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["git_rev"] = s.Value
			case "vcs.modified":
				p["git_dirty"] = s.Value
			}
		}
	}
	if d, err := sourceDigest(o.root); err == nil {
		p["source_sha256"] = d
	}
	return p
}

// sourceDigest hashes the repository's Go sources and go.mod, skipping
// hidden directories, so a result can be tied to the tree it measured
// even where the checkout carries no git metadata.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
