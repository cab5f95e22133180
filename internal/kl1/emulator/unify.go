package emulator

import (
	"fmt"

	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/word"
	"pimcache/internal/probe"
)

// deref follows reference chains. It returns either (value, 0) for a
// bound term or (cellContent, cellAddr) when the chain ends at an unbound
// variable (with or without hooked suspensions).
func (e *Engine) deref(w word.Word) (word.Word, word.Addr) {
	for {
		switch w.Tag() {
		case word.TagRef:
			a := w.Addr()
			v := e.acc.Read(a)
			if v.IsVar() {
				return v, a
			}
			w = v
		case word.TagUnbound, word.TagHook:
			// Registers normally hold Ref views, but an Unbound word can
			// appear when a cell was read raw; its payload is the cell.
			return w, w.Addr()
		default:
			return w, 0
		}
	}
}

// loadCell reads a heap/record cell into register representation: unbound
// cells become Ref views so the variable's identity survives in the
// register file.
func (e *Engine) loadCell(a word.Addr) word.Word {
	w := e.acc.Read(a)
	if w.IsVar() {
		return word.Ref(a)
	}
	return w
}

// fixVar converts a raw cell word already read from memory into register
// representation (unbound cells become Ref views).
func (e *Engine) fixVar(a word.Addr, w word.Word) word.Word {
	if w.IsVar() {
		return word.Ref(a)
	}
	return w
}

// Match outcomes for passive equality.
type matchResult uint8

const (
	matchOK matchResult = iota
	matchFail
	matchSuspend
)

// passiveEqual implements input unification of two terms without
// exporting bindings (nonlinear clause heads). Any situation that would
// require a binding records suspension candidates and reports
// matchSuspend.
func (e *Engine) passiveEqual(a, b word.Word) matchResult {
	va, ca := e.deref(a)
	vb, cb := e.deref(b)
	if ca != 0 || cb != 0 {
		if ca != 0 && cb != 0 && ca == cb {
			return matchOK // the same variable
		}
		if ca != 0 {
			e.addCandidate(ca)
		}
		if cb != 0 {
			e.addCandidate(cb)
		}
		return matchSuspend
	}
	if va.Tag() != vb.Tag() {
		return matchFail
	}
	switch va.Tag() {
	case word.TagInt, word.TagAtom, word.TagNil:
		if va == vb {
			return matchOK
		}
		return matchFail
	case word.TagList:
		if r := e.passiveEqual(e.loadCell(va.Addr()), e.loadCell(vb.Addr())); r != matchOK {
			return r
		}
		return e.passiveEqual(e.loadCell(va.Addr()+1), e.loadCell(vb.Addr()+1))
	case word.TagStruct:
		fa := e.acc.Read(va.Addr())
		fb := e.acc.Read(vb.Addr())
		if fa != fb {
			return matchFail
		}
		for i := 0; i < fa.FunctorArity(); i++ {
			off := word.Addr(1 + i)
			if r := e.passiveEqual(e.loadCell(va.Addr()+off), e.loadCell(vb.Addr()+off)); r != matchOK {
				return r
			}
		}
		return matchOK
	}
	return matchFail
}

// Unification outcomes.
type unifyResult uint8

const (
	unifyOK unifyResult = iota
	unifyFailed
	// unifyBlocked: a variable lock is held by another PE; nothing was
	// modified. Retry the whole operation after the unlock broadcast.
	unifyBlocked
)

// unify performs active (output) unification. Variable bindings take the
// variable's word lock (LR) and release it with the binding write (UW),
// exactly the heap locking pattern the paper attributes to dependent
// AND-parallel execution. Binding a hooked variable runs the resumption
// routine, relinking every waiting goal to this PE's goal list.
func (e *Engine) unify(a, b word.Word) unifyResult {
	va, ca := e.deref(a)
	vb, cb := e.deref(b)
	switch {
	case ca != 0 && cb != 0:
		if ca == cb {
			return unifyOK
		}
		return e.bindVarVar(ca, cb)
	case ca != 0:
		return e.bindVarValue(ca, vb)
	case cb != 0:
		return e.bindVarValue(cb, va)
	}
	// Both bound: structural unification.
	if va.Tag() != vb.Tag() {
		return unifyFailed
	}
	switch va.Tag() {
	case word.TagInt, word.TagAtom, word.TagNil:
		if va == vb {
			return unifyOK
		}
		return unifyFailed
	case word.TagList:
		if r := e.unify(e.loadCell(va.Addr()), e.loadCell(vb.Addr())); r != unifyOK {
			return r
		}
		return e.unify(e.loadCell(va.Addr()+1), e.loadCell(vb.Addr()+1))
	case word.TagStruct:
		fa := e.acc.Read(va.Addr())
		fb := e.acc.Read(vb.Addr())
		if fa != fb {
			return unifyFailed
		}
		for i := 0; i < fa.FunctorArity(); i++ {
			off := word.Addr(1 + i)
			if r := e.unify(e.loadCell(va.Addr()+off), e.loadCell(vb.Addr()+off)); r != unifyOK {
				return r
			}
		}
		return unifyOK
	}
	return unifyFailed
}

// bindVarValue binds the variable at cell to value v (which is bound).
func (e *Engine) bindVarValue(cell word.Addr, v word.Word) unifyResult {
	cur, ok := e.acc.LockRead(cell)
	if !ok {
		return unifyBlocked
	}
	if !cur.IsVar() {
		// Bound by another PE between our deref and the lock: release
		// and unify against the new value.
		e.acc.Unlock(cell)
		return e.unify(word.Ref(cell), v)
	}
	hooks := word.NilAddr
	if cur.Tag() == word.TagHook {
		hooks = cur.Addr()
	}
	e.acc.UnlockWrite(cell, v)
	if hooks != word.NilAddr {
		e.wakeHooks(hooks)
	}
	return unifyOK
}

// bindVarVar links two unbound variables. Locks are taken in address
// order, which prevents deadlock among concurrent binders; hook lists are
// merged onto the surviving (lower-addressed) variable.
func (e *Engine) bindVarVar(ca, cb word.Addr) unifyResult {
	lo, hi := ca, cb
	if lo > hi {
		lo, hi = hi, lo
	}
	loVal, ok := e.acc.LockRead(lo)
	if !ok {
		return unifyBlocked
	}
	hiVal, ok := e.acc.LockRead(hi)
	if !ok {
		// Release the first lock and retry later: holding it while busy
		// waiting could deadlock with the other PE's binder.
		e.acc.Unlock(lo)
		return unifyBlocked
	}
	if !loVal.IsVar() || !hiVal.IsVar() {
		// One side got bound while we were locking: restart generally.
		e.acc.Unlock(hi)
		e.acc.Unlock(lo)
		return e.unify(word.Ref(ca), word.Ref(cb))
	}
	// Merge hi's hook list into lo, then point hi at lo.
	loHooks := word.NilAddr
	if loVal.Tag() == word.TagHook {
		loHooks = loVal.Addr()
	}
	if hiVal.Tag() == word.TagHook {
		merged := hiVal.Addr()
		if loHooks != word.NilAddr {
			// Append lo's chain after hi's (walking hi's chain).
			tail := merged
			for {
				next := e.acc.Read(tail + suspNextOff)
				if next.Tag() != word.TagSusp {
					break
				}
				tail = next.Addr()
			}
			e.acc.Write(tail+suspNextOff, word.Susp(loHooks))
		}
		loHooks = merged
	}
	if loHooks != word.NilAddr {
		e.acc.UnlockWrite(lo, word.Hook(loHooks))
	} else {
		e.acc.UnlockWrite(lo, word.Unbound(lo))
	}
	e.acc.UnlockWrite(hi, word.Ref(lo))
	return unifyOK
}

// wakeHooks runs the resumption routine over a suspension list: each
// waiting goal still floating is relinked to this PE's goal list, and the
// suspension records are reclaimed to this PE's free list. Goal status
// words are read and rewritten within one machine step, which makes the
// check-and-requeue atomic in the deterministic interleaving (hardware
// would hold the record's word lock).
func (e *Engine) wakeHooks(head word.Addr) {
	s := head
	for s != word.NilAddr {
		next := e.acc.ExclusiveRead(s + suspNextOff)
		goalW := e.acc.ReadPurge(s + suspGoalOff)
		if goalW.Tag() != word.TagGoal {
			panic(fmt.Sprintf("emulator: corrupt suspension record at %#x: %v", s, goalW))
		}
		g := goalW.Addr()
		status := e.acc.Read(g + goalStatusOff)
		if status.Tag() == word.TagInt && status.IntVal() == statusFloating {
			e.acc.Write(g+goalStatusOff, word.Int(statusQueued))
			e.acc.Write(g+goalLinkOff, e.goalLink())
			e.pushGoalAddr(g)
			e.sh.liveGoals++
			e.sh.floating--
			e.stats.Resumptions++
			e.sh.emitSched(probe.KindGoalResume, e.pe, g, 0)
		} else {
			// Stale suspension (the goal was already woken through
			// another variable): write the status back unchanged. The
			// write re-invalidates the shared copy this PE's read just
			// created, preserving the free list's direct-write contract —
			// a goal record's blocks must have no remote copies when the
			// record is recycled.
			e.acc.Write(g+goalStatusOff, status)
		}
		e.suspFL.Push(e.dw, s)
		if next.Tag() == word.TagSusp {
			s = next.Addr()
		} else {
			s = word.NilAddr
		}
	}
}

// --- suspension of the current goal ---

// startSuspend begins suspending the current goal on the collected
// candidate variables: the goal is recreated as a floating record, then
// hooked to each candidate (multi-step: each hook takes a variable lock).
func (e *Engine) startSuspend() {
	rec, ok := e.goalFL.Alloc(e.acc)
	if !ok {
		e.sh.fail(fmt.Sprintf("PE %d goal area exhausted", e.pe))
		return
	}
	e.acc.DirectWrite(rec+goalLinkOff, word.Nil())
	e.acc.DirectWrite(rec+goalHeaderOff, compile.EncodeGoalHeader(e.curProc, e.curArity))
	e.acc.DirectWrite(rec+goalStatusOff, word.Int(statusFloating))
	for i := 0; i < e.curArity; i++ {
		e.acc.DirectWrite(rec+goalArgsOff+word.Addr(i), e.regs[i])
	}
	e.suspRec = rec
	e.suspIdx = 0
	e.suspAny = false
	e.suspWake = false
	e.stats.Suspensions++
	e.sh.floating++
	e.sh.emitSched(probe.KindGoalSuspend, e.pe, rec, 0)
	e.continueSuspend()
}

// continueSuspend hooks the goal to the next candidate variable; it is
// re-entered after busy waits.
func (e *Engine) continueSuspend() {
	for e.suspIdx < len(e.candidates) {
		cell := e.candidates[e.suspIdx]
		cur, ok := e.acc.LockRead(cell)
		if !ok {
			return // busy wait; re-enter later
		}
		if !cur.IsVar() {
			// Already bound: the wake condition holds right now.
			e.acc.Unlock(cell)
			e.suspWake = true
			e.suspAny = true
			e.suspIdx++
			continue
		}
		s, ok := e.suspFL.Alloc(e.acc)
		if !ok {
			e.acc.Unlock(cell)
			e.sh.fail(fmt.Sprintf("PE %d suspension area exhausted", e.pe))
			return
		}
		if cur.Tag() == word.TagHook {
			e.acc.DirectWrite(s+suspNextOff, word.Susp(cur.Addr()))
		} else {
			e.acc.DirectWrite(s+suspNextOff, word.Nil())
		}
		e.acc.DirectWrite(s+suspGoalOff, word.Goal(e.suspRec))
		e.acc.UnlockWrite(cell, word.Hook(s))
		e.suspAny = true
		e.suspIdx++
	}
	rec := e.suspRec
	e.suspRec = 0
	e.pc = 0
	e.sh.liveGoals-- // floating goals are not live ...
	if e.suspWake || !e.suspAny {
		// ... but one of the variables was already bound (or every hook
		// raced with a binder): requeue immediately.
		status := e.acc.Read(rec + goalStatusOff)
		if status.Tag() == word.TagInt && status.IntVal() == statusFloating {
			e.acc.Write(rec+goalStatusOff, word.Int(statusQueued))
			e.acc.Write(rec+goalLinkOff, e.goalLink())
			e.pushGoalAddr(rec)
			e.sh.liveGoals++
			e.sh.floating--
		}
	}
}
