package obs

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Manifest is the structured record one simulator invocation leaves
// behind: enough provenance (config, seed, code revision, toolchain) and
// outcome (timings, metric snapshot) to audit a quantitative claim or
// compare two runs. One JSON file per run.
type Manifest struct {
	// Tool names the emitting command (simulate, repro, simbench).
	Tool string `json:"tool"`

	// Args is the command line after the program name.
	Args []string `json:"args,omitempty"`

	// Config is the tool-specific resolved configuration block.
	Config any `json:"config,omitempty"`

	// Seed is the root random seed of the run (0 when not applicable).
	Seed uint64 `json:"seed"`

	// GitRevision is the VCS commit the binary was built from, and
	// GitDirty whether the tree had local modifications.
	GitRevision string `json:"git_revision"`
	GitDirty    bool   `json:"git_dirty,omitempty"`

	// GoVersion is the runtime's toolchain version.
	GoVersion string `json:"go_version"`

	// StartedAt is the wall-clock start in RFC3339 UTC.
	StartedAt string `json:"started_at"`

	// WallSeconds and CPUSeconds are the run's elapsed wall time and
	// CPU time (user+system) of the process and the children it waited
	// for, filled by Finish.
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`

	// Metrics is the final registry snapshot.
	Metrics Snapshot `json:"metrics"`

	start time.Time
}

// NewManifest starts a manifest for the named tool: it stamps the start
// time and fills the provenance fields (args, go version, git revision).
func NewManifest(tool string, seed uint64) *Manifest {
	m := &Manifest{
		Tool:      tool,
		Args:      os.Args[1:],
		Seed:      seed,
		GoVersion: runtime.Version(),
		start:     time.Now(),
	}
	m.StartedAt = m.start.UTC().Format(time.RFC3339)
	m.GitRevision, m.GitDirty = gitRevision()
	return m
}

// Finish closes the manifest: it records wall and CPU time since
// NewManifest and attaches the metric snapshot.
func (m *Manifest) Finish(metrics Snapshot) *Manifest {
	m.WallSeconds = time.Since(m.start).Seconds()
	m.CPUSeconds = cpuSeconds()
	m.Metrics = metrics
	return m
}

// MarshalIndent renders the manifest as indented JSON with a trailing
// newline.
func (m *Manifest) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the manifest to path.
func (m *Manifest) WriteFile(path string) error {
	data, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// gitRevision resolves the commit hash of the running code: first from
// the binary's embedded build info (set for installed binaries), then by
// asking git directly (the `go run` / `go test` case), finally "unknown".
func gitRevision() (rev string, dirty bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev != "" {
		return rev, dirty
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	rev = strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err == nil && len(strings.TrimSpace(string(status))) > 0 {
		dirty = true
	}
	return rev, dirty
}
