package asm

import (
	"fmt"
	"strconv"
	"strings"

	"twindrivers/internal/isa"
)

// ParseError describes a parse failure with its source line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Assemble parses source text into a Unit.
func Assemble(src string) (*Unit, error) {
	return AssembleWithEquates(src, nil)
}

// AssembleWithEquates parses source text with a set of predefined
// compile-time constants. The kernel substrate injects structure-field
// offsets (sk_buff, netdev, ring layouts) this way so that driver assembly
// and the Go-side layout definitions share a single source of truth.
func AssembleWithEquates(src string, equates map[string]int32) (*Unit, error) {
	p := &parser{unit: NewUnit(), section: "text"}
	for k, v := range equates {
		p.unit.Equates[k] = v
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		if err := p.line(lineNo+1, raw); err != nil {
			return nil, err
		}
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return p.unit, nil
}

type parser struct {
	unit    *Unit
	section string // "text", "data", "bss"

	cur           *Func    // function being assembled
	pendingLabels []string // labels waiting for the next instruction/datum
	pendingAlign  uint32
	curData       *Data
}

func (p *parser) errf(line int, format string, args ...interface{}) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// line processes one source line (which may contain several ';'-separated
// statements, as in "rep; movsl").
func (p *parser) line(n int, raw string) error {
	if i := strings.IndexByte(raw, '#'); i >= 0 {
		raw = raw[:i]
	}
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return nil
	}
	// Peel leading labels.
	for {
		i := strings.IndexByte(raw, ':')
		if i < 0 {
			break
		}
		candidate := strings.TrimSpace(raw[:i])
		if !isSymbol(candidate) {
			break
		}
		if err := p.defineLabel(n, candidate); err != nil {
			return err
		}
		raw = strings.TrimSpace(raw[i+1:])
		if raw == "" {
			return nil
		}
	}
	if strings.HasPrefix(raw, ".") {
		return p.directive(n, raw)
	}
	// A rep prefix may be separated by ';' or whitespace.
	var rep isa.Rep
	for {
		word, rest := splitWord(raw)
		r, ok := repByName(word)
		if !ok {
			break
		}
		if rep != isa.RepNone {
			return p.errf(n, "duplicate rep prefix")
		}
		rep = r
		raw = strings.TrimSpace(strings.TrimPrefix(rest, ";"))
		if raw == "" {
			return p.errf(n, "rep prefix without string instruction")
		}
	}
	return p.instruction(n, raw, rep)
}

func splitWord(s string) (word, rest string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' || c == ';' {
			return s[:i], strings.TrimSpace(s[i:])
		}
	}
	return s, ""
}

func repByName(s string) (isa.Rep, bool) {
	switch s {
	case "rep":
		return isa.RepPlain, true
	case "repe", "repz":
		return isa.RepE, true
	case "repne", "repnz":
		return isa.RepNE, true
	}
	return isa.RepNone, false
}

func isSymbol(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == '.' || c == '$' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	// A leading digit is not a symbol; a bare '.' is not either.
	return s != "." && !(s[0] >= '0' && s[0] <= '9')
}

func (p *parser) defineLabel(n int, name string) error {
	switch p.section {
	case "text":
		local := strings.HasPrefix(name, ".")
		if local {
			if p.cur == nil {
				return p.errf(n, "local label %q before any function", name)
			}
			p.pendingLabels = append(p.pendingLabels, name)
			return nil
		}
		// A non-local text label starts a new function.
		if err := p.closeFunc(n); err != nil {
			return err
		}
		if p.unit.Func(name) != nil {
			return p.errf(n, "duplicate function %q", name)
		}
		p.cur = &Func{Name: name, Labels: map[string]int{name: 0}}
		return nil
	case "data", "bss":
		p.closeData()
		if p.unit.Data(name) != nil {
			return p.errf(n, "duplicate data symbol %q", name)
		}
		align := p.pendingAlign
		if align == 0 {
			align = 4
		}
		p.pendingAlign = 0
		p.curData = &Data{Name: name, Section: p.section, Align: align}
		return nil
	}
	return p.errf(n, "label %q outside any section", name)
}

func (p *parser) closeFunc(n int) error {
	if p.cur == nil {
		return nil
	}
	if len(p.pendingLabels) > 0 {
		return p.errf(n, "labels %v at end of function %q with no instruction", p.pendingLabels, p.cur.Name)
	}
	if len(p.cur.Insts) == 0 {
		return p.errf(n, "function %q has no instructions", p.cur.Name)
	}
	p.unit.Funcs = append(p.unit.Funcs, p.cur)
	p.cur = nil
	return nil
}

func (p *parser) closeData() {
	if p.curData != nil {
		p.unit.Datas = append(p.unit.Datas, p.curData)
		p.curData = nil
	}
}

func (p *parser) finish() error {
	if err := p.closeFunc(0); err != nil {
		return err
	}
	p.closeData()
	return nil
}

func (p *parser) directive(n int, raw string) error {
	word, rest := splitWord(raw)
	args := splitArgs(rest)
	switch word {
	case ".text":
		p.closeData()
		p.section = "text"
	case ".data":
		if err := p.closeFunc(n); err != nil {
			return err
		}
		p.closeData()
		p.section = "data"
	case ".bss":
		if err := p.closeFunc(n); err != nil {
			return err
		}
		p.closeData()
		p.section = "bss"
	case ".globl", ".global":
		if len(args) != 1 {
			return p.errf(n, "%s wants one symbol", word)
		}
		p.unit.Globals[args[0]] = true
	case ".extern":
		if len(args) != 1 {
			return p.errf(n, ".extern wants one symbol")
		}
		p.unit.Externs[args[0]] = true
	case ".equ", ".set":
		if len(args) != 2 {
			return p.errf(n, "%s wants NAME, VALUE", word)
		}
		v, err := p.constExpr(n, args[1])
		if err != nil {
			return err
		}
		p.unit.Equates[args[0]] = v
	case ".align":
		if p.section == "text" {
			return nil // no-op for fixed-slot code
		}
		if len(args) != 1 {
			return p.errf(n, ".align wants one value")
		}
		v, err := p.constExpr(n, args[0])
		if err != nil {
			return err
		}
		if v <= 0 || (v&(v-1)) != 0 {
			return p.errf(n, ".align %d: not a power of two", v)
		}
		p.pendingAlign = uint32(v)
	case ".long", ".int":
		return p.emitData(n, args, 4)
	case ".word", ".short":
		return p.emitData(n, args, 2)
	case ".byte":
		return p.emitData(n, args, 1)
	case ".space", ".skip":
		if p.curData == nil {
			return p.errf(n, ".space outside a data symbol")
		}
		if len(args) < 1 || len(args) > 2 {
			return p.errf(n, ".space wants SIZE [, FILL]")
		}
		size, err := p.constExpr(n, args[0])
		if err != nil {
			return err
		}
		fill := int32(0)
		if len(args) == 2 {
			if fill, err = p.constExpr(n, args[1]); err != nil {
				return err
			}
		}
		for i := int32(0); i < size; i++ {
			p.curData.Bytes = append(p.curData.Bytes, byte(fill))
		}
	case ".asciz", ".string":
		if p.curData == nil {
			return p.errf(n, "%s outside a data symbol", word)
		}
		s, err := strconv.Unquote(strings.TrimSpace(rest))
		if err != nil {
			return p.errf(n, "%s: bad string literal: %v", word, err)
		}
		p.curData.Bytes = append(p.curData.Bytes, []byte(s)...)
		p.curData.Bytes = append(p.curData.Bytes, 0)
	default:
		return p.errf(n, "unknown directive %q", word)
	}
	return nil
}

func (p *parser) emitData(n int, args []string, width int) error {
	if p.curData == nil {
		return p.errf(n, "data directive outside a data symbol")
	}
	if p.section == "bss" {
		return p.errf(n, "initialised data in .bss")
	}
	for _, a := range args {
		v, err := p.constExpr(n, a)
		if err != nil {
			return err
		}
		u := uint32(v)
		for i := 0; i < width; i++ {
			p.curData.Bytes = append(p.curData.Bytes, byte(u))
			u >>= 8
		}
	}
	return nil
}

// constExpr evaluates a compile-time constant: NUMBER, EQUATE, or a +/-
// chain of those.
func (p *parser) constExpr(n int, s string) (int32, error) {
	total := int64(0)
	for _, t := range splitTerms(s) {
		v, err := p.term(n, t.text)
		if err != nil {
			return 0, err
		}
		if t.neg {
			total -= int64(v)
		} else {
			total += int64(v)
		}
	}
	return int32(total), nil
}

func (p *parser) term(n int, s string) (int32, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, p.errf(n, "empty term in constant expression")
	}
	if v, ok := p.unit.Equates[s]; ok {
		return v, nil
	}
	v, err := parseNumber(s)
	if err != nil {
		return 0, p.errf(n, "bad constant %q (not a number or equate)", s)
	}
	return v, nil
}

type exprTerm struct {
	text string
	neg  bool
}

// splitTerms splits "a+b-c" into signed terms, keeping a leading sign on
// the first term's number (e.g. "-4").
func splitTerms(s string) []exprTerm {
	var out []exprTerm
	neg := false
	cur := strings.Builder{}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c == '+' || c == '-') && cur.Len() > 0 {
			out = append(out, exprTerm{cur.String(), neg})
			cur.Reset()
			neg = c == '-'
			continue
		}
		if c == '-' && cur.Len() == 0 {
			// leading minus binds to the term
			cur.WriteByte(c)
			continue
		}
		if c == '+' && cur.Len() == 0 {
			continue
		}
		cur.WriteByte(c)
	}
	if cur.Len() > 0 {
		out = append(out, exprTerm{cur.String(), neg})
	}
	return out
}

func parseNumber(s string) (int32, error) {
	s = strings.TrimSpace(s)
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// allow full-range unsigned hex like 0xfffff000
		u, uerr := strconv.ParseUint(s, 0, 32)
		if uerr != nil {
			return 0, err
		}
		return int32(u), nil
	}
	if v > 0xFFFFFFFF || v < -0x80000000 {
		return 0, fmt.Errorf("constant %q out of 32-bit range", s)
	}
	return int32(uint32(v)), nil
}

// splitArgs splits on commas that are not inside parentheses or quotes.
func splitArgs(s string) []string {
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(':
			if !inStr {
				depth++
			}
		case ')':
			if !inStr {
				depth--
			}
		case ',':
			if depth == 0 && !inStr {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	tail := strings.TrimSpace(s[start:])
	if tail != "" {
		out = append(out, tail)
	}
	return out
}

// instruction parses one instruction statement.
func (p *parser) instruction(n int, raw string, rep isa.Rep) error {
	if p.section != "text" {
		return p.errf(n, "instruction outside .text")
	}
	if p.cur == nil {
		return p.errf(n, "instruction before any function label")
	}
	mnemonic, rest := splitWord(raw)
	args := splitArgs(rest)

	inst, err := p.decode(n, mnemonic, args)
	if err != nil {
		return err
	}
	inst.Rep = rep
	if rep != isa.RepNone && !inst.IsString() {
		return p.errf(n, "rep prefix on non-string instruction %q", mnemonic)
	}
	inst.Line = n

	idx := len(p.cur.Insts)
	if len(p.pendingLabels) > 0 {
		inst.Label = p.pendingLabels[0]
		for _, l := range p.pendingLabels {
			if _, dup := p.cur.Labels[l]; dup {
				return p.errf(n, "duplicate label %q in function %q", l, p.cur.Name)
			}
			p.cur.Labels[l] = idx
		}
		p.pendingLabels = p.pendingLabels[:0]
	}
	p.cur.Insts = append(p.cur.Insts, inst)
	return nil
}

// decode maps a mnemonic + operands to an instruction.
func (p *parser) decode(n int, mnemonic string, args []string) (isa.Inst, error) {
	var inst isa.Inst

	// Exact-match no-operand forms first (movsb the string op vs movsbl the
	// sign-extending move is the classic ambiguity).
	switch mnemonic {
	case "ret":
		return isa.Inst{Op: isa.RET}, nil
	case "nop":
		return isa.Inst{Op: isa.NOP}, nil
	case "hlt":
		return isa.Inst{Op: isa.HLT}, nil
	case "cli":
		return isa.Inst{Op: isa.CLI}, nil
	case "sti":
		return isa.Inst{Op: isa.STI}, nil
	case "ud2":
		return isa.Inst{Op: isa.UD2}, nil
	case "clc":
		return isa.Inst{Op: isa.CLC}, nil
	case "stc":
		return isa.Inst{Op: isa.STC}, nil
	case "cld":
		return isa.Inst{Op: isa.CLD}, nil
	case "std":
		return isa.Inst{Op: isa.STD}, nil
	case "pushf", "pushfl":
		return isa.Inst{Op: isa.PUSHF}, nil
	case "popf", "popfl":
		return isa.Inst{Op: isa.POPF}, nil
	case "inl", "inw", "inb":
		return isa.Inst{Op: isa.IN, Size: suffixSize(mnemonic[2:])}, nil
	case "outl", "outw", "outb":
		return isa.Inst{Op: isa.OUT, Size: suffixSize(mnemonic[3:])}, nil
	case "movsb", "movsw", "movsl":
		return isa.Inst{Op: isa.MOVS, Size: suffixSize(mnemonic[4:])}, nil
	case "stosb", "stosw", "stosl":
		return isa.Inst{Op: isa.STOS, Size: suffixSize(mnemonic[4:])}, nil
	case "lodsb", "lodsw", "lodsl":
		return isa.Inst{Op: isa.LODS, Size: suffixSize(mnemonic[4:])}, nil
	case "cmpsb", "cmpsw", "cmpsl":
		return isa.Inst{Op: isa.CMPS, Size: suffixSize(mnemonic[4:])}, nil
	case "scasb", "scasw", "scasl":
		return isa.Inst{Op: isa.SCAS, Size: suffixSize(mnemonic[4:])}, nil
	case "int":
		if len(args) != 1 {
			return inst, p.errf(n, "int wants one immediate")
		}
		op, err := p.operand(n, args[0])
		if err != nil {
			return inst, err
		}
		return isa.Inst{Op: isa.INT, Src: op}, nil
	case "jmp", "call":
		op := isa.JMP
		if mnemonic == "call" {
			op = isa.CALL
		}
		if len(args) != 1 {
			return inst, p.errf(n, "%s wants one target", mnemonic)
		}
		if strings.HasPrefix(args[0], "*") {
			o, err := p.operand(n, args[0][1:])
			if err != nil {
				return inst, err
			}
			return isa.Inst{Op: op, Indirect: true, Src: o}, nil
		}
		if !isSymbol(args[0]) {
			return inst, p.errf(n, "%s target %q is not a symbol", mnemonic, args[0])
		}
		return isa.Inst{Op: op, Target: args[0]}, nil
	}

	// movz / movs extensions: movzbl, movzwl, movsbl, movswl.
	if len(mnemonic) == 6 && (strings.HasPrefix(mnemonic, "movz") || strings.HasPrefix(mnemonic, "movs")) &&
		mnemonic[5] == 'l' && (mnemonic[4] == 'b' || mnemonic[4] == 'w') {
		op := isa.MOVZX
		if mnemonic[3] == 's' {
			op = isa.MOVSX
		}
		src, dst, err := p.twoOperands(n, mnemonic, args)
		if err != nil {
			return inst, err
		}
		return isa.Inst{Op: op, Size: suffixSize(mnemonic[4:5]), Src: src, Dst: dst}, nil
	}

	// Conditional jumps and sets.
	if strings.HasPrefix(mnemonic, "j") {
		if cond, ok := isa.CondByName(mnemonic[1:]); ok {
			if len(args) != 1 || !isSymbol(args[0]) {
				return inst, p.errf(n, "%s wants a label target", mnemonic)
			}
			return isa.Inst{Op: isa.JCC, Cond: cond, Target: args[0]}, nil
		}
	}
	if strings.HasPrefix(mnemonic, "set") {
		if cond, ok := isa.CondByName(mnemonic[3:]); ok {
			if len(args) != 1 {
				return inst, p.errf(n, "%s wants one operand", mnemonic)
			}
			dst, err := p.operand(n, args[0])
			if err != nil {
				return inst, err
			}
			return isa.Inst{Op: isa.SETCC, Cond: cond, Size: 1, Dst: dst}, nil
		}
	}

	// General size-suffixed forms.
	base, size := mnemonic, uint8(0)
	if len(mnemonic) > 1 {
		switch mnemonic[len(mnemonic)-1] {
		case 'l':
			base, size = mnemonic[:len(mnemonic)-1], 4
		case 'w':
			base, size = mnemonic[:len(mnemonic)-1], 2
		case 'b':
			base, size = mnemonic[:len(mnemonic)-1], 1
		}
	}
	op, nops, ok := lookupOp(base)
	if !ok {
		// Retry without stripping (mnemonics like "imul" without suffix).
		op, nops, ok = lookupOp(mnemonic)
		size = 4
		if !ok {
			return inst, p.errf(n, "unknown mnemonic %q", mnemonic)
		}
	}
	if len(args) != nops {
		return inst, p.errf(n, "%s wants %d operand(s), got %d", mnemonic, nops, len(args))
	}
	if op == isa.IMUL && size == 1 {
		return inst, p.errf(n, "%s: no two-operand 8-bit imul", mnemonic)
	}
	switch nops {
	case 1:
		o, err := p.operand(n, args[0])
		if err != nil {
			return inst, err
		}
		switch op {
		case isa.PUSH:
			return isa.Inst{Op: op, Size: size, Src: o}, nil
		default: // pop, inc, dec, neg, not, mul, div
			return isa.Inst{Op: op, Size: size, Dst: o}, nil
		}
	case 2:
		src, dst, err := p.twoOperands(n, mnemonic, args)
		if err != nil {
			return inst, err
		}
		if src.Kind == isa.KindMem && dst.Kind == isa.KindMem {
			return inst, p.errf(n, "%s: two memory operands not allowed", mnemonic)
		}
		return isa.Inst{Op: op, Size: size, Src: src, Dst: dst}, nil
	}
	return inst, p.errf(n, "unhandled mnemonic %q", mnemonic)
}

func (p *parser) twoOperands(n int, mnemonic string, args []string) (src, dst isa.Operand, err error) {
	if len(args) != 2 {
		return src, dst, p.errf(n, "%s wants 2 operands, got %d", mnemonic, len(args))
	}
	if src, err = p.operand(n, args[0]); err != nil {
		return
	}
	dst, err = p.operand(n, args[1])
	return
}

func suffixSize(s string) uint8 {
	switch s {
	case "b":
		return 1
	case "w":
		return 2
	}
	return 4
}

// lookupOp maps a base mnemonic to (op, operand count).
func lookupOp(base string) (isa.Op, int, bool) {
	switch base {
	case "mov":
		return isa.MOV, 2, true
	case "lea":
		return isa.LEA, 2, true
	case "xchg":
		return isa.XCHG, 2, true
	case "add":
		return isa.ADD, 2, true
	case "sub":
		return isa.SUB, 2, true
	case "adc":
		return isa.ADC, 2, true
	case "sbb":
		return isa.SBB, 2, true
	case "and":
		return isa.AND, 2, true
	case "or":
		return isa.OR, 2, true
	case "xor":
		return isa.XOR, 2, true
	case "cmp":
		return isa.CMP, 2, true
	case "test":
		return isa.TEST, 2, true
	case "shl", "sal":
		return isa.SHL, 2, true
	case "shr":
		return isa.SHR, 2, true
	case "sar":
		return isa.SAR, 2, true
	case "imul":
		return isa.IMUL, 2, true
	case "push":
		return isa.PUSH, 1, true
	case "pop":
		return isa.POP, 1, true
	case "inc":
		return isa.INC, 1, true
	case "dec":
		return isa.DEC, 1, true
	case "neg":
		return isa.NEG, 1, true
	case "not":
		return isa.NOT, 1, true
	case "mul":
		return isa.MUL, 1, true
	case "div":
		return isa.DIV, 1, true
	}
	return isa.INVALID, 0, false
}

// operand parses a single operand.
func (p *parser) operand(n int, s string) (isa.Operand, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return isa.Operand{}, p.errf(n, "empty operand")
	}
	switch s[0] {
	case '$':
		return p.immOperand(n, s[1:])
	case '%':
		r, ok := isa.RegByName(s[1:])
		if !ok {
			return isa.Operand{}, p.errf(n, "unknown register %q", s)
		}
		return isa.RegOp(r), nil
	}
	return p.memOperand(n, s)
}

func (p *parser) immOperand(n int, s string) (isa.Operand, error) {
	// $number, $equate, $sym, $sym+off — with any +/- chain.
	var sym string
	total := int64(0)
	for _, t := range splitTerms(s) {
		if v, ok := p.unit.Equates[t.text]; ok {
			if t.neg {
				total -= int64(v)
			} else {
				total += int64(v)
			}
			continue
		}
		if v, err := parseNumber(t.text); err == nil {
			if t.neg {
				total -= int64(v)
			} else {
				total += int64(v)
			}
			continue
		}
		if isSymbol(t.text) && !t.neg {
			if sym != "" {
				return isa.Operand{}, p.errf(n, "immediate with two symbols: %q", s)
			}
			sym = t.text
			continue
		}
		return isa.Operand{}, p.errf(n, "bad immediate term %q", t.text)
	}
	return isa.Operand{Kind: isa.KindImm, Imm: int32(total), Sym: sym}, nil
}

// memOperand parses disp(base,index,scale) with an optional symbol in the
// displacement, or a bare displacement/symbol (absolute address).
func (p *parser) memOperand(n int, s string) (isa.Operand, error) {
	o := isa.Operand{Kind: isa.KindMem, Base: isa.RegNone, Index: isa.RegNone, Scale: 1}
	dispPart := s
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return o, p.errf(n, "unbalanced parens in %q", s)
		}
		dispPart = strings.TrimSpace(s[:i])
		inner := s[i+1 : len(s)-1]
		parts := strings.Split(inner, ",")
		if len(parts) > 3 {
			return o, p.errf(n, "too many address components in %q", s)
		}
		if len(parts) >= 1 {
			b := strings.TrimSpace(parts[0])
			if b != "" {
				if !strings.HasPrefix(b, "%") {
					return o, p.errf(n, "bad base register %q", b)
				}
				r, ok := isa.RegByName(b[1:])
				if !ok {
					return o, p.errf(n, "unknown base register %q", b)
				}
				o.Base = r
			}
		}
		if len(parts) >= 2 {
			x := strings.TrimSpace(parts[1])
			if x != "" {
				if !strings.HasPrefix(x, "%") {
					return o, p.errf(n, "bad index register %q", x)
				}
				r, ok := isa.RegByName(x[1:])
				if !ok {
					return o, p.errf(n, "unknown index register %q", x)
				}
				if r == isa.ESP {
					return o, p.errf(n, "%%esp cannot be an index register")
				}
				o.Index = r
			}
		}
		if len(parts) == 3 {
			sc := strings.TrimSpace(parts[2])
			v, err := parseNumber(sc)
			if err != nil || (v != 1 && v != 2 && v != 4 && v != 8) {
				return o, p.errf(n, "bad scale %q", sc)
			}
			o.Scale = uint8(v)
		}
	}
	if dispPart != "" {
		total := int64(0)
		for _, t := range splitTerms(dispPart) {
			if v, ok := p.unit.Equates[t.text]; ok {
				if t.neg {
					total -= int64(v)
				} else {
					total += int64(v)
				}
				continue
			}
			if v, err := parseNumber(t.text); err == nil {
				if t.neg {
					total -= int64(v)
				} else {
					total += int64(v)
				}
				continue
			}
			if isSymbol(t.text) && !t.neg {
				if o.Sym != "" {
					return o, p.errf(n, "memory operand with two symbols: %q", s)
				}
				o.Sym = t.text
				continue
			}
			return o, p.errf(n, "bad displacement term %q in %q", t.text, s)
		}
		o.Disp = int32(total)
	}
	return o, nil
}
