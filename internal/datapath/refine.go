package datapath

import (
	"sort"

	"repro/internal/netlist"
)

// partialMasks inspects every continuation attempt from a seed column and,
// when only a strict subset of bits can continue (at least MinBits of them),
// returns that subset as a retry mask. This rescues structural-bus seeds
// polluted by coincidental look-alike bits: one fake bit would otherwise
// veto the growth of the whole array.
func (ex *extractor) partialMasks(seed []netlist.CellID) [][]bool {
	nl := ex.nl
	bits := len(seed)
	var masks [][]bool
	seenMask := map[string]bool{}

	addMask := func(feasible []bool) {
		n := 0
		for _, f := range feasible {
			if f {
				n++
			}
		}
		// Rescue is for seeds polluted by fake bits; a mask at or below half
		// the seed width is a different (usually diagonal/cross-bit)
		// structure and aligning it would be wrong.
		min := ex.opt.MinBits
		if q := bits/2 + 1; q > min {
			min = q
		}
		if n < min || n == bits {
			return
		}
		key := string(maskBytes(feasible))
		if seenMask[key] {
			return
		}
		seenMask[key] = true
		masks = append(masks, append([]bool(nil), feasible...))
	}

	pinNames := make([]string, 0, 8)
	for name := range ex.pins(seed[0]) {
		pinNames = append(pinNames, name)
	}
	sort.Strings(pinNames)

	for _, pn := range pinNames {
		p0 := nl.Pin(ex.pins(seed[0])[pn])
		// Per-bit candidate nets; majority degree defines the lock-step
		// shape the mask keeps.
		nets := make([]netlist.NetID, bits)
		degCount := map[int]int{}
		for i, c := range seed {
			pid, okPin := ex.pins(c)[pn]
			if !okPin {
				nets[i] = netlist.NoNet
				continue
			}
			ni := nl.Pin(pid).Net
			nets[i] = ni
			degCount[nl.Net(ni).Degree()]++
		}
		wantDeg, bestN := -1, 0
		//placelint:ignore maporder argmax with a full (count, degree) tie break is iteration-order independent
		for d, n := range degCount {
			if n > bestN || (n == bestN && d < wantDeg) {
				wantDeg, bestN = d, n
			}
		}
		if wantDeg < 0 || wantDeg > maxDataFanout {
			continue
		}
		netOK := make([]bool, bits)
		netUse := map[netlist.NetID]int{}
		for i, ni := range nets {
			if ni == netlist.NoNet || nl.Net(ni).Degree() != wantDeg {
				continue
			}
			netOK[i] = true
			netUse[ni]++
		}
		for i, ni := range nets {
			if netOK[i] && netUse[ni] > 1 {
				netOK[i] = false // shared net: control, not data
			}
		}

		if p0.Dir == netlist.DirOutput {
			for _, key := range ex.sinkKeysAny(nets, netOK) {
				feasible := make([]bool, bits)
				for i := range seed {
					if !netOK[i] {
						continue
					}
					if c := ex.uniqueEndpoint(nets[i], key, netlist.DirInput); c != netlist.NoCell {
						feasible[i] = true
					}
				}
				addMask(feasible)
			}
		} else {
			feasible := make([]bool, bits)
			for i := range seed {
				if !netOK[i] {
					continue
				}
				if c := ex.uniqueDriver(nets[i]); c != netlist.NoCell {
					feasible[i] = true
				}
			}
			addMask(feasible)
		}
	}
	return masks
}

// sinkKeysAny unions the exactly-once sink keys over the usable nets, so a
// key present on most bits is still tried.
func (ex *extractor) sinkKeysAny(nets []netlist.NetID, netOK []bool) []endpointMatch {
	seen := map[endpointMatch]bool{}
	var keys []endpointMatch
	for i, ni := range nets {
		if !netOK[i] {
			continue
		}
		for _, k := range ex.sinkKeys(ni, netlist.NoCell) {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].sig != keys[b].sig {
			return keys[a].sig < keys[b].sig
		}
		return keys[a].pin < keys[b].pin
	})
	return keys
}

func maskBytes(mask []bool) []byte {
	b := make([]byte, len(mask))
	for i, v := range mask {
		if v {
			b[i] = 1
		}
	}
	return b
}

// foldGroups reshapes groups whose rows are really words×bits. Evidence: an
// external driver cell feeding several rows of the same column through one
// data net marks those rows as one physical bit (the words of a register
// bank all load from the same input bit). When the evidence partitions the
// rows into equal-size classes, the group is reshaped to classes×(k·stages).
func (ex *extractor) foldGroups(groups []Group) []Group {
	for gi := range groups {
		g, ok := ex.foldOne(groups[gi])
		if !ok {
			continue
		}
		// Folding may drop non-conforming rows (fake bits, foreign cells a
		// mixed blob swept up); release their claims so later selection
		// rounds can regroup them correctly.
		kept := make(map[netlist.CellID]bool, g.NumCells())
		for _, col := range g.Columns {
			for _, c := range col {
				kept[c] = true
			}
		}
		for _, col := range groups[gi].Columns {
			for _, c := range col {
				if !kept[c] {
					ex.used[c] = false
				}
			}
		}
		groups[gi] = g
	}
	return groups
}

func (ex *extractor) foldOne(g Group) (Group, bool) {
	nl := ex.nl
	bits := g.Bits()
	if bits < 2*ex.opt.MinBits {
		return g, false
	}
	inGroup := make(map[netlist.CellID]bool, g.NumCells())
	for _, col := range g.Columns {
		for _, c := range col {
			inGroup[c] = true
		}
	}

	// Each (column, pin) is a separate fold hypothesis: nets on that pin
	// whose external driver feeds several rows partition the rows into
	// classes. Data pins (a register bank's load inputs) partition rows by
	// bit — many small classes; control pins (write enables) partition by
	// word — few large classes. Preferring the hypothesis with the most
	// classes therefore picks the data interpretation.
	var best *foldHyp
	for _, col := range g.Columns {
		rowsByPin := map[string]map[netlist.NetID][]int{}
		for b, c := range col {
			for _, pid := range nl.Cell(c).Pins {
				p := nl.Pin(pid)
				if p.Dir != netlist.DirInput {
					continue
				}
				if nl.Net(p.Net).Degree() > maxDataFanout {
					continue
				}
				drv := ex.uniqueDriver(p.Net)
				if drv == netlist.NoCell || inGroup[drv] {
					continue
				}
				if rowsByPin[p.Name] == nil {
					rowsByPin[p.Name] = map[netlist.NetID][]int{}
				}
				rowsByPin[p.Name][p.Net] = append(rowsByPin[p.Name][p.Net], b)
			}
		}
		// Visit pins in sorted name order: the class-count comparison below
		// keeps the first hypothesis on ties, so map order would otherwise
		// decide which equally-good pin wins — and with it the partition.
		pins := make([]string, 0, len(rowsByPin))
		for name := range rowsByPin {
			pins = append(pins, name)
		}
		sort.Strings(pins)
		for _, name := range pins {
			h := buildFoldHypothesis(rowsByPin[name], bits, ex.opt.MinBits)
			if h == nil {
				continue
			}
			if best == nil || len(h.classes) > len(best.classes) {
				best = h
			}
		}
	}
	if best == nil {
		return g, false
	}

	// Reshape: each old column becomes k new columns (one per word).
	out := Group{}
	for _, col := range g.Columns {
		for w := 0; w < best.k; w++ {
			newCol := make([]netlist.CellID, len(best.classes))
			for ci, members := range best.classes {
				newCol[ci] = col[members[w]]
			}
			out.Columns = append(out.Columns, newCol)
		}
	}
	return out, true
}

// foldHyp is an equal-size row-partition hypothesis: classes of k rows.
type foldHyp struct {
	classes [][]int // equal-size classes, each sorted
	k       int
}

// buildFoldHypothesis turns a net→rows map into an equal-size row partition
// hypothesis, or nil when the evidence does not support one. Rows outside
// the dominant class size (fake bits, ragged boundaries) are dropped, but
// they must be a minority.
func buildFoldHypothesis(byNet map[netlist.NetID][]int, bits, minBits int) *foldHyp {
	sizeCount := map[int]int{} // class size → rows covered
	//placelint:ignore maporder integer accumulation keyed by class size is order independent
	for _, rows := range byNet {
		if len(rows) >= 2 {
			sizeCount[len(rows)] += len(rows)
		}
	}
	k, covered := 0, 0
	//placelint:ignore maporder argmax with a full (coverage, size) tie break is iteration-order independent
	for sz, rows := range sizeCount {
		if rows > covered || (rows == covered && sz < k) {
			k, covered = sz, rows
		}
	}
	nClasses := 0
	if k >= 2 {
		nClasses = covered / k
	}
	if k < 2 || nClasses < minBits || covered*4 < bits*3 {
		return nil
	}
	// A row may appear in several nets of the same pin only pathologically;
	// require disjoint classes.
	seen := make([]bool, bits)
	var classes [][]int
	//placelint:ignore maporder classes are disjoint (else nil) and fully sorted before use below
	for _, rows := range byNet {
		if len(rows) != k {
			continue
		}
		sorted := append([]int(nil), rows...)
		sort.Ints(sorted)
		for _, r := range sorted {
			if seen[r] {
				return nil
			}
			seen[r] = true
		}
		classes = append(classes, sorted)
	}
	sort.Slice(classes, func(a, b int) bool { return classes[a][0] < classes[b][0] })
	return &foldHyp{classes: classes, k: k}
}

// regrow resumes lock-step growth on the accepted groups: any continuation
// whose cells are globally unclaimed joins its group. Folding and merging
// create shapes whose continuations were impossible earlier.
func (ex *extractor) regrow(groups []Group) {
	for gi := range groups {
		g := &groups[gi]
		for qi := 0; qi < len(g.Columns); qi++ {
			for _, next := range ex.continuations(g.Columns[qi], nil) {
				ok := true
				for _, c := range next {
					if ex.used[c] {
						ok = false
						break
					}
				}
				if !ok || !ex.columnOK(next, nil) {
					continue
				}
				for _, c := range next {
					ex.used[c] = true
				}
				g.Columns = append(g.Columns, next)
			}
		}
	}
}
