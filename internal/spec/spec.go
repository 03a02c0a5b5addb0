// Package spec models the six SPEC CPU2006 benchmarks the paper uses as its
// contrast set: 401.bzip2, 429.mcf, 456.hmmer, 458.sjeng, 462.libquantum and
// 999.specrand. Each is a genuine miniature of the real benchmark's
// algorithm (block compression, min-cost flow, Viterbi DP, alpha-beta
// search, quantum register simulation, LCG) running in the classic C/Linux
// memory layout: one process named "benchmark", instruction fetches from the
// app binary, data in heap/anonymous/stack — the "simple" profile the
// paper's figures contrast against Android's.
package spec

import (
	"fmt"
	"sort"

	"agave/internal/kernel"
	"agave/internal/mem"
)

// Benchmark is one SPEC workload model.
type Benchmark struct {
	Name string
	// TextSize approximates the binary's text footprint.
	TextSize uint64
	// InputBytes is read from storage at startup (driving ata_sff/0).
	InputBytes uint64
	// AnonBytes is the large working set allocated above MMAP_THRESHOLD
	// (the "anonymous" region of the paper's Figure 2).
	AnonBytes uint64
	// Step runs one unit of work; the main loop repeats it until the
	// simulation deadline.
	Step func(ex *kernel.Exec, env *Env)
}

// Env is the memory environment a SPEC kernel runs in.
type Env struct {
	Proc *kernel.Process
	Anon *mem.VMA // large mmapped working set (nil if AnonBytes == 0)
	iter uint64
	// Checksum accumulates each step's result so computations cannot be
	// dead-code eliminated and tests can assert determinism.
	Checksum uint64

	// per-benchmark persistent state (built on first step)
	mcf   *mcfGraph
	sjeng *sjengTT
}

// Names lists the suite in the paper's order.
func Names() []string {
	return []string{
		"401.bzip2", "429.mcf", "456.hmmer",
		"458.sjeng", "462.libquantum", "999.specrand",
	}
}

// ByName returns the model for one benchmark.
func ByName(name string) (*Benchmark, error) {
	switch name {
	case "401.bzip2":
		return &Benchmark{Name: name, TextSize: 256 * 1024, InputBytes: 4 << 20,
			AnonBytes: 8 << 20, Step: stepBzip2}, nil
	case "429.mcf":
		return &Benchmark{Name: name, TextSize: 64 * 1024, InputBytes: 2 << 20,
			AnonBytes: 24 << 20, Step: stepMCF}, nil
	case "456.hmmer":
		return &Benchmark{Name: name, TextSize: 320 * 1024, InputBytes: 1 << 20,
			AnonBytes: 0, Step: stepHmmer}, nil
	case "458.sjeng":
		return &Benchmark{Name: name, TextSize: 192 * 1024, InputBytes: 64 * 1024,
			AnonBytes: 12 << 20, Step: stepSjeng}, nil
	case "462.libquantum":
		return &Benchmark{Name: name, TextSize: 48 * 1024, InputBytes: 16 * 1024,
			AnonBytes: 16 << 20, Step: stepQuantum}, nil
	case "999.specrand":
		return &Benchmark{Name: name, TextSize: 16 * 1024, InputBytes: 4 * 1024,
			AnonBytes: 0, Step: stepSpecrand}, nil
	}
	return nil, fmt.Errorf("spec: unknown benchmark %q", name)
}

// Launch creates the benchmark process (named "benchmark", as in the
// paper's process legends) and starts its main thread: read the input from
// storage, then iterate Step until the simulation deadline. It returns the
// environment so tests can inspect the checksum.
func Launch(k *kernel.Kernel, b *Benchmark) *Env {
	p := k.NewProcess("benchmark", b.TextSize, 4<<20)
	env := &Env{Proc: p}
	if b.AnonBytes > 0 {
		env.Anon = p.Layout.MapAnon(p.AS, b.AnonBytes)
	}
	k.SpawnThread(p, b.Name, "main", func(ex *kernel.Exec) {
		ex.PushCode(p.Layout.Text)
		// Startup: read the input set (drives the ata_sff/0 process the
		// paper observes competing with SPEC).
		in := p.Layout.Heap
		remaining := b.InputBytes
		for remaining > 0 {
			chunk := min(remaining, uint64(1<<20))
			ex.BlockRead(in, chunk)
			remaining -= chunk
		}
		for {
			b.Step(ex, env)
			env.iter++
		}
	})
	return env
}

// --- 401.bzip2: block compression (BWT + MTF + RLE) ---

// Bzip2Block compresses a block with a real Burrows–Wheeler transform,
// move-to-front coding and run-length encoding; Decompress inverts it. The
// simulation runs these for real on small blocks, and tests assert the
// round trip.
func Bzip2Compress(block []byte) []byte {
	bwt, idx := bwtForward(block)
	mtf := mtfEncode(bwt)
	out := rleEncode(mtf)
	hdr := []byte{byte(idx), byte(idx >> 8), byte(idx >> 16), byte(idx >> 24)}
	return append(hdr, out...)
}

// Bzip2Decompress inverts Bzip2Compress.
//
//agave:allow unusedfunc reference decoder: the bzip2 round-trip test checks Bzip2Compress against it
func Bzip2Decompress(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("spec: short bzip2 block")
	}
	idx := int(data[0]) | int(data[1])<<8 | int(data[2])<<16 | int(data[3])<<24
	mtf, err := rleDecode(data[4:])
	if err != nil {
		return nil, err
	}
	bwt := mtfDecode(mtf)
	return bwtInverse(bwt, idx)
}

func bwtForward(s []byte) ([]byte, int) {
	n := len(s)
	rot := make([]int, n)
	for i := range rot {
		rot[i] = i
	}
	sort.Slice(rot, func(a, b int) bool {
		ra, rb := rot[a], rot[b]
		for k := 0; k < n; k++ {
			ca, cb := s[(ra+k)%n], s[(rb+k)%n]
			if ca != cb {
				return ca < cb
			}
		}
		return ra < rb
	})
	out := make([]byte, n)
	primary := 0
	for i, r := range rot {
		out[i] = s[(r+n-1)%n]
		if r == 0 {
			primary = i
		}
	}
	return out, primary
}

func bwtInverse(l []byte, primary int) ([]byte, error) {
	n := len(l)
	if primary < 0 || primary >= n {
		return nil, fmt.Errorf("spec: bad BWT index %d", primary)
	}
	var count [256]int
	for _, c := range l {
		count[c]++
	}
	var base [256]int
	sum := 0
	for c := 0; c < 256; c++ {
		base[c] = sum
		sum += count[c]
	}
	next := make([]int, n)
	var seen [256]int
	for i, c := range l {
		next[base[c]+seen[c]] = i
		seen[c]++
	}
	out := make([]byte, n)
	p := next[primary]
	for i := 0; i < n; i++ {
		out[i] = l[p]
		p = next[p]
	}
	return out, nil
}

func mtfEncode(s []byte) []byte {
	var tbl [256]byte
	for i := range tbl {
		tbl[i] = byte(i)
	}
	out := make([]byte, len(s))
	for i, c := range s {
		var j int
		for j = 0; tbl[j] != c; j++ {
		}
		out[i] = byte(j)
		copy(tbl[1:j+1], tbl[:j])
		tbl[0] = c
	}
	return out
}

func mtfDecode(s []byte) []byte {
	var tbl [256]byte
	for i := range tbl {
		tbl[i] = byte(i)
	}
	out := make([]byte, len(s))
	for i, j := range s {
		c := tbl[j]
		out[i] = c
		copy(tbl[1:int(j)+1], tbl[:int(j)])
		tbl[0] = c
	}
	return out
}

func rleEncode(s []byte) []byte {
	var out []byte
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] && j-i < 255 {
			j++
		}
		out = append(out, s[i], byte(j-i))
		i = j
	}
	return out
}

func rleDecode(s []byte) ([]byte, error) {
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("spec: odd RLE stream")
	}
	var out []byte
	for i := 0; i < len(s); i += 2 {
		for k := 0; k < int(s[i+1]); k++ {
			out = append(out, s[i])
		}
	}
	return out, nil
}

// stepBzip2 compresses one synthetic text block for real and accounts the
// full-scale block volume.
func stepBzip2(ex *kernel.Exec, env *Env) {
	const realBlock = 2048
	buf := env.Anon.Slice(0, realBlock)
	seed := env.iter*2654435761 + 12345
	for i := range buf {
		seed = seed*1103515245 + 12345
		buf[i] = "the quick brown fox jumps over "[seed%31]
	}
	comp := Bzip2Compress(buf)
	env.Checksum += uint64(len(comp))
	// Account the full 256 KiB-block workload this miniature stands for:
	// suffix sort reads, MTF table traffic, output writes.
	heap := env.Proc.Layout.Heap
	ex.Do(kernel.Work{Fetch: 10, Reads: 2, Data: env.Anon}, 300_000)
	ex.Do(kernel.Work{Fetch: 4, Reads: 1, Writes: 1, Data: heap}, 120_000)
	ex.StackWork(40_000)
}

func min(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
