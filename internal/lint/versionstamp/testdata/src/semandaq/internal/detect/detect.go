// Package detect is a fixture stand-in for the real detection package:
// same import path (the analyzer's contract keys on it), minimal types.
package detect

// Report carries the stamp field and is constructed by the client fixture.
type Report struct {
	Version int64
	Vio     []int
}

// Result is missing its stamp field, which the declaration check flags.
type Result struct { // want `detect.Result must carry a Version`
	N int
}

// Digest is the wire form of a report and under the same contract.
type Digest struct {
	Version int64
	Dirty   int
}

func digest(r *Report) *Digest {
	return &Digest{Version: r.Version, Dirty: len(r.Vio)}
}

func unstampedDigest(r *Report) *Digest {
	return &Digest{Dirty: len(r.Vio)} // want `detect.Digest constructed without stamping Version`
}

// Summary is not a contract name; no field is required.
type Summary struct {
	N int
}

func fresh(version int64) *Report {
	return &Report{Version: version}
}

func unstamped() *Report {
	return &Report{Vio: []int{1}} // want `detect.Report constructed without stamping Version`
}
