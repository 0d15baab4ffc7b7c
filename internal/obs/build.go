package obs

import (
	"runtime"
	"runtime/debug"
)

// BuildInfo identifies the running binary: the module version, the Go
// toolchain that built it, and the VCS revision it was built from. The
// server exports it as the olapdim_build_info gauge, so a scrape can
// always say which build produced which numbers.
type BuildInfo struct {
	// Version is the main module version ("(devel)" for source builds).
	Version string
	// GoVersion is the toolchain, e.g. "go1.24.3".
	GoVersion string
	// Revision is the VCS commit hash, "unknown" when the build carries
	// no VCS stamp (go test binaries, go run).
	Revision string
}

// Labels renders the build info as metric labels for Registry.Info.
func (b BuildInfo) Labels() map[string]string {
	return map[string]string{
		"version":   b.Version,
		"goversion": b.GoVersion,
		"revision":  b.Revision,
	}
}

// GetBuildInfo reads the binary's build metadata from
// runtime/debug.ReadBuildInfo. Fields the build did not stamp (no VCS
// info under go test, no module version outside module builds) degrade
// to "unknown" rather than empty, so the labels are always present.
func GetBuildInfo() BuildInfo {
	out := BuildInfo{Version: "unknown", GoVersion: runtime.Version(), Revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	if bi.Main.Version != "" {
		out.Version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		out.GoVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			out.Revision = s.Value
		}
	}
	return out
}
