package baseline

import (
	"delorean/internal/bitio"
	"delorean/internal/lz77"
	"delorean/internal/sim"
)

// Strata implements Narayanasamy et al.'s stratum-based recorder. Rather
// than logging individual dependences, the log is a sequence of strata:
// each stratum is a vector with, per processor, the number of memory
// operations issued since the previous stratum. A stratum is logged right
// before the second access of an inter-processor dependence whose first
// access lies in the current stratum region.
//
// SkipWAR reproduces the paper's option of not logging strata for
// write-after-read dependences (smaller log, slower replay: WARs must be
// uncovered by re-execution).
type Strata struct {
	nprocs  int
	SkipWAR bool

	memOps  []uint64 // current per-proc memop counts
	lastCut []uint64 // counts at the previous stratum
	stratum uint32   // current stratum index + 1
	// Per line, by history index: the stratum (index + 1) of the last
	// write, and of each processor's last read since it (0 none), at
	// nprocs entries a line.
	writerStrat []uint32
	readerStrat []uint32

	entries int
	w       bitio.Writer
}

// NewStrata builds a recorder for nprocs processors.
func NewStrata(nprocs int, skipWAR bool) *Strata {
	return &Strata{
		nprocs:  nprocs,
		SkipWAR: skipWAR,
		memOps:  make([]uint64, nprocs),
		lastCut: make([]uint64, nprocs),
		stratum: 1,
	}
}

// Name implements Recorder.
func (s *Strata) Name() string {
	if s.SkipWAR {
		return "Strata(noWAR)"
	}
	return "Strata"
}

// cut logs a stratum: the per-processor operation counts since the last
// stratum, each uvarint-encoded.
func (s *Strata) cut() {
	s.entries++
	for p := 0; p < s.nprocs; p++ {
		s.w.WriteUvarint(s.memOps[p] - s.lastCut[p])
		s.lastCut[p] = s.memOps[p]
	}
	s.stratum++
}

// observe implements Recorder.
func (s *Strata) observe(e sim.AccessEvent, ls *lineState, index int) {
	if index == len(s.writerStrat) {
		s.writerStrat = append(s.writerStrat, 0)
		s.readerStrat = append(s.readerStrat, make([]uint32, s.nprocs)...)
	}
	readers := s.readerStrat[index*s.nprocs : (index+1)*s.nprocs]

	// Does this access complete a dependence whose source is in the
	// current stratum? RAW or WAW from the last writer, and WAR from a
	// reader unless SkipWAR.
	needCut := ls.writerProc >= 0 && int(ls.writerProc) != e.Proc && s.writerStrat[index] == s.stratum
	if e.Write && !s.SkipWAR {
		for q, st := range readers {
			if q != e.Proc && st == s.stratum {
				needCut = true
				break
			}
		}
	}
	if needCut {
		s.cut()
	}

	// Count the access and record its stratum. A counted event's reads
	// repeat an earlier read of the line with no write since, so none of
	// them completes a dependence in the current stratum: the only trace
	// they leave is their number.
	s.memOps[e.Proc] += e.Count
	if e.Write {
		s.writerStrat[index] = s.stratum
		clear(readers)
	}
	if e.Read {
		readers[e.Proc] = s.stratum
	}
}

// Entries implements Recorder (strata logged).
func (s *Strata) Entries() int { return s.entries }

// RawBits implements Recorder.
func (s *Strata) RawBits() int { return s.w.Len() }

// CompressedBits implements Recorder.
func (s *Strata) CompressedBits() int { return lz77.CompressedBits(s.w.Bytes()) }

// Log implements Recorder.
func (s *Strata) Log() []byte { return s.w.Bytes() }

var _ Recorder = (*Strata)(nil)
