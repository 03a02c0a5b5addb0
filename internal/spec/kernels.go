package spec

import (
	"agave/internal/kernel"
)

// --- 429.mcf: min-cost flow (simplified network simplex) ---
//
// A genuine single-source shortest-path/negative-edge relaxation over a
// pseudo-random sparse graph: the pointer-chasing, cache-hostile access
// pattern 429.mcf is famous for. The graph lives conceptually in the huge
// anonymous mapping (mcf allocates its arc array with one giant malloc that
// glibc services with mmap — hence "anonymous", as the paper notes about
// MMAP_THRESHOLD).

const (
	mcfNodes = 4096
	mcfArcs  = 4 * mcfNodes
)

type mcfGraph struct {
	head  [mcfArcs]int32
	next  [mcfArcs]int32
	cost  [mcfArcs]int32
	first [mcfNodes]int32
	dist  [mcfNodes]int64
}

func (g *mcfGraph) init(seed uint64) {
	for i := range g.first {
		g.first[i] = -1
	}
	for a := 0; a < mcfArcs; a++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		from := int32(seed % mcfNodes)
		seed = seed*6364136223846793005 + 1442695040888963407
		to := int32(seed % mcfNodes)
		g.head[a] = to
		g.cost[a] = int32(seed%97) - 16
		g.next[a] = g.first[from]
		g.first[from] = int32(a)
	}
}

func stepMCF(ex *kernel.Exec, env *Env) {
	if env.mcf == nil {
		env.mcf = &mcfGraph{}
		env.mcf.init(42)
	}
	g := env.mcf
	for i := range g.dist {
		g.dist[i] = 1 << 40
	}
	g.dist[0] = 0
	relaxed := 0
	// Two Bellman-Ford rounds of genuine pointer chasing.
	for round := 0; round < 2; round++ {
		for u := 0; u < mcfNodes; u++ {
			for a := g.first[u]; a >= 0; a = g.next[a] {
				v := g.head[a]
				if nd := g.dist[u] + int64(g.cost[a]); nd < g.dist[v] {
					g.dist[v] = nd
					relaxed++
				}
			}
		}
	}
	env.Checksum += uint64(relaxed)
	// Account the full-size working set traversal: node/arc structure
	// reads dominate, nearly all in the anonymous arena.
	ex.Do(kernel.Work{Fetch: 6, Reads: 3, Data: env.Anon}, 260_000)
	ex.Do(kernel.Work{Fetch: 2, Writes: 1, Data: env.Anon}, 40_000)
	ex.StackWork(8_000)
}

// --- 456.hmmer: profile HMM Viterbi DP ---

const (
	hmmStates = 128
	hmmSeqLen = 256
)

func stepHmmer(ex *kernel.Exec, env *Env) {
	// Genuine Viterbi pass: match/insert/delete recurrences.
	var prev, cur [hmmStates]int32
	seed := env.iter*2862933555777941757 + 3037000493
	for i := range prev {
		prev[i] = int32(i % 7)
	}
	var best int32
	for pos := 0; pos < hmmSeqLen; pos++ {
		seed = seed*6364136223846793005 + 1
		emit := int32(seed % 31)
		cur[0] = prev[0] + emit
		for s := 1; s < hmmStates; s++ {
			m := prev[s-1] + emit   // match
			ins := prev[s] + emit/2 // insert
			del := cur[s-1] - 3     // delete
			v := m
			if ins > v {
				v = ins
			}
			if del > v {
				v = del
			}
			cur[s] = v
		}
		prev = cur
		if cur[hmmStates-1] > best {
			best = cur[hmmStates-1]
		}
	}
	env.Checksum += uint64(uint32(best))
	// The DP matrix traffic of the full-scale model (heap-resident).
	heap := env.Proc.Layout.Heap
	ex.Do(kernel.Work{Fetch: 9, Reads: 3, Writes: 1, Data: heap}, 220_000)
	ex.StackWork(30_000)
}

// --- 458.sjeng: alpha-beta game-tree search ---
//
// A real negamax search with a transposition table over a deterministic
// two-player take-away game (positions = pile states), reproducing sjeng's
// branchy, hash-probing profile.

type sjengTT struct {
	key [1 << 14]uint64
	val [1 << 14]int32
	ok  [1 << 14]bool
}

func (tt *sjengTT) search(piles [4]int8, depth int, alpha, beta int32, probes *uint64) int32 {
	if depth == 0 {
		var sum int32
		for _, p := range piles {
			sum += int32(p)
		}
		return sum & 7
	}
	var h uint64 = 14695981039346656037
	for _, p := range piles {
		h = (h ^ uint64(uint8(p))) * 1099511628211
	}
	h ^= uint64(depth)
	slot := h & (1<<14 - 1)
	*probes++
	if tt.ok[slot] && tt.key[slot] == h {
		return tt.val[slot]
	}
	best := int32(-1 << 30)
	moved := false
	for i := 0; i < 4; i++ {
		for take := int8(1); take <= 3 && take <= piles[i]; take++ {
			child := piles
			child[i] -= take
			moved = true
			v := -tt.search(child, depth-1, -beta, -alpha, probes)
			if v > best {
				best = v
			}
			if best > alpha {
				alpha = best
			}
			if alpha >= beta {
				goto done
			}
		}
	}
	if !moved {
		best = -8 // side to move has no moves: lost position
	}
done:
	tt.key[slot] = h
	tt.val[slot] = best
	tt.ok[slot] = true
	return best
}

func stepSjeng(ex *kernel.Exec, env *Env) {
	if env.sjeng == nil {
		env.sjeng = &sjengTT{}
	}
	var probes uint64
	piles := [4]int8{
		int8(3 + env.iter%5), int8(4 + env.iter%3),
		int8(2 + env.iter%7), int8(5),
	}
	v := env.sjeng.search(piles, 6, -1<<30, 1<<30, &probes)
	env.Checksum += uint64(uint32(v)) + probes
	// Full-scale accounting: hash probes against the anonymous TT,
	// move generation on the stack, evaluation compute.
	ex.Do(kernel.Work{Fetch: 8, Reads: 2, Data: env.Anon}, 180_000)
	ex.Do(kernel.Work{Fetch: 3, Writes: 1, Data: env.Anon}, 30_000)
	ex.StackWork(90_000)
}

// --- 462.libquantum: quantum register simulation ---

const quantumQubits = 12 // 4096-amplitude state vector

func stepQuantum(ex *kernel.Exec, env *Env) {
	n := 1 << quantumQubits
	// Genuine gate applications over a real amplitude array (fixed-point).
	amp := make([]int32, n)
	amp[0] = 1 << 14
	target := uint(env.iter % quantumQubits)
	bit := 1 << target
	// Hadamard on `target`: butterfly over the state vector.
	for i := 0; i < n; i++ {
		if i&bit == 0 {
			a, b := amp[i], amp[i|bit]
			amp[i] = (a + b) * 23170 >> 15 // 1/sqrt2 in Q15
			amp[i|bit] = (a - b) * 23170 >> 15
		}
	}
	// Controlled-NOT: swap amplitude pairs.
	ctrl := 1 << ((target + 1) % quantumQubits)
	for i := 0; i < n; i++ {
		if i&ctrl != 0 && i&bit == 0 {
			amp[i], amp[i|bit] = amp[i|bit], amp[i]
		}
	}
	var sum int64
	for _, a := range amp {
		sum += int64(a) * int64(a)
	}
	env.Checksum += uint64(sum)
	// Full-scale register (libquantum uses millions of amplitudes in the
	// anonymous arena): streaming read-modify-write sweeps.
	ex.Do(kernel.Work{Fetch: 7, Reads: 2, Writes: 2, Data: env.Anon}, 350_000)
	ex.StackWork(5_000)
}

// --- 999.specrand: the null benchmark ---

func stepSpecrand(ex *kernel.Exec, env *Env) {
	// specrand literally draws random numbers and prints a few: almost
	// no data footprint, pure register/ALU activity.
	seed := env.Checksum*69069 + 1
	for i := 0; i < 4096; i++ {
		seed = seed*69069 + 1
	}
	env.Checksum = seed
	ex.Fetch(160_000)
	ex.StackWork(6_000)
}
