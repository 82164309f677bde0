package lang

import (
	"fmt"
	"math"
	"strconv"
)

// Lex tokenizes tcf-e source. Comments: // to end of line and /* ... */.
//
// The token array is allocated once, at a length the token count cannot
// exceed (tokenBound), and filled in one scan; it is never grown.
func Lex(src string) ([]Token, error) {
	if len(src) > math.MaxInt32 {
		return nil, errTooLarge
	}
	toks := make([]Token, tokenBound(src))
	l := lexer{src: src, line: 1}
	for n := range toks {
		if _, err := l.next(&toks[n]); err != nil {
			return nil, err
		}
		if toks[n].Kind == TokEOF {
			return toks[: n+1 : n+1], nil
		}
	}
	panic("lang: tokenBound is not a bound")
}

// errTooLarge refuses a source that token offsets cannot address.
var errTooLarge = &Error{Pos: Pos{Line: 1, Col: 1}, Msg: "source larger than 2 GiB"}

// tokenBound returns a token count that src cannot exceed, TokEOF included:
// the bytes that can start a token. Outside comments and strings, which
// only make the bound looser, a token starts at a byte that is neither
// white space nor part of a word (punctuation: at most one token a byte), at
// the first byte of a run of word bytes, or in a run that starts with a
// digit at the first byte a number cannot hold: the number ends there, and
// the identifier that starts there takes the rest of the run.
func tokenBound(src string) int {
	n := 1
	inWord, inNumber := false, false
	for i := 0; i < len(src); i++ {
		cl := charClass[src[i]]
		word := cl&(clIdentStart|clDigit) != 0
		switch {
		case word && !inWord:
			n++
			inNumber = cl&clDigit != 0
		case word && inNumber && cl&clNumTail == 0:
			n++
			inNumber = false
		case !word && cl&clSpace == 0:
			n++
		}
		inWord = word
	}
	return n
}

// lexer scans one source text. The parser pulls tokens from it one at a
// time; there is no token array on the way from source to AST.
type lexer struct {
	src string
	off int // next unread byte
	// line is the 1-based line of off and lineStart the offset of that
	// line's first byte: the column of any offset on the line is its
	// distance from lineStart, so columns cost nothing per byte.
	line      int32
	lineStart int
}

// Error is a positioned lex/parse diagnostic. The rendered form is
// "lang: line:col: message" so existing substring matches keep working;
// tooling (tcfvet) unwraps it with errors.As to recover the position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("lang: %s: %s", e.Pos, e.Msg) }

func posErrf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// posAt is the position of offset off, which must lie on the current line.
func (l *lexer) posAt(off int) Pos {
	return Pos{Line: l.line, Col: int32(off-l.lineStart) + 1}
}

// Character classes.
const (
	clIdentStart = 1 << iota // letters and _
	clDigit
	clNumTail // what a number runs on over after its first digit
	clSpace
)

var charClass = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] |= clIdentStart
		t[c-'a'+'A'] |= clIdentStart
	}
	t['_'] |= clIdentStart
	for c := '0'; c <= '9'; c++ {
		t[c] |= clDigit | clNumTail
	}
	for _, c := range "abcdefxoABCDEFXO" {
		t[c] |= clNumTail
	}
	for _, c := range " \t\r\n" {
		t[c] |= clSpace
	}
	return t
}()

func isIdentStart(c byte) bool { return charClass[c]&clIdentStart != 0 }
func isDigit(c byte) bool      { return charClass[c]&clDigit != 0 }

// skip moves past white space and comments.
func (l *lexer) skip() error {
	src, i := l.src, l.off
	for i < len(src) {
		switch c := src[i]; {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '\n':
			i++
			l.line++
			l.lineStart = i
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i += 2; i < len(src) && src[i] != '\n'; i++ {
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			start := l.posAt(i)
			closed := false
			for i += 2; i < len(src); i++ {
				if src[i] == '*' && i+1 < len(src) && src[i+1] == '/' {
					i += 2
					closed = true
					break
				}
				if src[i] == '\n' {
					l.line++
					l.lineStart = i + 1
				}
			}
			if !closed {
				l.off = i
				return posErrf(start, "unterminated block comment")
			}
		default:
			l.off = i
			return nil
		}
	}
	l.off = i
	return nil
}

// next scans one token into *tok and returns its position. After the end of
// the source it yields TokEOF again and again.
func (l *lexer) next(tok *Token) (Pos, error) {
	src, i := l.src, l.off
	if i < len(src) && (charClass[src[i]]&clSpace != 0 || src[i] == '/') {
		if err := l.skip(); err != nil {
			return Pos{}, err
		}
		i = l.off
	}
	pos := l.posAt(i)
	if i >= len(src) {
		*tok = Token{Kind: TokEOF, Off: int32(i), End: int32(i)}
		return pos, nil
	}
	c := src[i]
	switch {
	case isIdentStart(c):
		j := i + 1
		for j < len(src) && charClass[src[j]]&(clIdentStart|clDigit) != 0 {
			j++
		}
		l.off = j
		*tok = Token{Kind: keyword(src[i:j]), Off: int32(i), End: int32(j)}
		return pos, nil
	case isDigit(c):
		j := i + 1
		for j < len(src) && charClass[src[j]]&clNumTail != 0 {
			j++
		}
		l.off = j
		text := src[i:j]
		if _, ok := intLiteral(text); !ok {
			if len(text) > 1 && text[0] == '0' && isDigit(text[1]) {
				return pos, posErrf(pos, "integer literal %q has a leading zero (octal is written 0o%s)", text, text[1:])
			}
			return pos, posErrf(pos, "bad integer literal %q", text)
		}
		*tok = Token{Kind: TokInt, Off: int32(i), End: int32(j)}
		return pos, nil
	case c == '"':
		return pos, l.str(pos, tok)
	}

	// Operators and punctuation.
	o := &opTable[c]
	kind, w := o.kind, 1
	if kind == TokEOF {
		return pos, posErrf(pos, "unexpected character %q", string(rune(c)))
	}
	if i+1 < len(src) {
		switch d := src[i+1]; {
		case d == '=' && o.withEq != TokEOF:
			kind, w = o.withEq, 2
		case d == c && o.doubled != TokEOF:
			kind, w = o.doubled, 2
			if i+2 < len(src) && src[i+2] == '=' && o.doubledEq != TokEOF {
				kind, w = o.doubledEq, 3
			}
		}
	}
	l.off = i + w
	*tok = Token{Kind: kind, Off: int32(i), End: int32(i + w)}
	return pos, nil
}

// opTable says, for a byte that starts an operator or punctuation token,
// which token it is alone, followed by '=', doubled, and doubled and
// followed by '='. TokEOF stands for "no such token".
var opTable = [256]struct{ kind, withEq, doubled, doubledEq TokKind }{
	'(': {kind: TokLParen}, ')': {kind: TokRParen},
	'{': {kind: TokLBrace}, '}': {kind: TokRBrace},
	'[': {kind: TokLBracket}, ']': {kind: TokRBracket},
	';': {kind: TokSemi}, ',': {kind: TokComma}, ':': {kind: TokColon},
	'#': {kind: TokHash}, '@': {kind: TokAt}, '~': {kind: TokTilde},
	'+': {kind: TokPlus, withEq: TokPlusAssign},
	'-': {kind: TokMinus, withEq: TokMinusAssign},
	'*': {kind: TokStar, withEq: TokStarAssign},
	'/': {kind: TokSlash, withEq: TokSlashAssign},
	'%': {kind: TokPercent, withEq: TokPercentAssign},
	'^': {kind: TokCaret, withEq: TokCaretAssign},
	'!': {kind: TokBang, withEq: TokNe},
	'=': {kind: TokAssign, withEq: TokEq},
	'&': {kind: TokAmp, withEq: TokAmpAssign, doubled: TokAndAnd},
	'|': {kind: TokPipe, withEq: TokPipeAssign, doubled: TokOrOr},
	'<': {kind: TokLt, withEq: TokLe, doubled: TokShl, doubledEq: TokShlAssign},
	'>': {kind: TokGt, withEq: TokGe, doubled: TokShr, doubledEq: TokShrAssign},
}

// intLiteral evaluates the text of an integer literal (a digit followed by
// digits, hex digits and the letters of the base prefixes): decimal without
// a leading zero, 0x/0X hexadecimal, 0b/0B binary or 0o/0O octal, in the
// range of int64. ok is false for any other text.
func intLiteral(text string) (v int64, ok bool) {
	if text[0] != '0' {
		// Decimal, the usual case, without strconv.
		var u uint64
		for i := 0; i < len(text); i++ {
			d := uint64(text[i] - '0')
			if d > 9 || u > (math.MaxInt64-d)/10 {
				return 0, false
			}
			u = u*10 + d
		}
		return int64(u), true
	}
	if len(text) > 1 && isDigit(text[1]) {
		return 0, false // strconv would read 010 as octal 8
	}
	v, err := strconv.ParseInt(text, 0, 64)
	return v, err == nil
}

// str scans a string literal starting at the opening quote.
func (l *lexer) str(pos Pos, tok *Token) error {
	src := l.src
	for i := l.off + 1; i < len(src); i++ {
		switch src[i] {
		case '"':
			*tok = Token{Kind: TokString, Off: int32(l.off), End: int32(i + 1)}
			l.off = i + 1
			return nil
		case '\\':
			if i++; i >= len(src) {
				return posErrf(pos, "unterminated escape")
			}
			if _, ok := escape(src[i]); !ok {
				return posErrf(pos, "unknown escape \\%c", src[i])
			}
		case '\n':
			l.line++
			l.lineStart = i + 1
		}
	}
	return posErrf(pos, "unterminated string")
}

// escape returns the character that \c stands for in a string literal.
func escape(c byte) (byte, bool) {
	switch c {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case '\\', '"':
		return c, true
	}
	return 0, false
}

// unquote returns the value of a string literal from its text between the
// quotes, which the lexer has found to hold only known escapes.
func unquote(raw string) string {
	i := 0
	for i < len(raw) && raw[i] != '\\' {
		i++
	}
	if i == len(raw) {
		return raw
	}
	buf := append(make([]byte, 0, len(raw)), raw[:i]...)
	for ; i < len(raw); i++ {
		ch := raw[i]
		if ch == '\\' {
			i++
			ch, _ = escape(raw[i])
		}
		buf = append(buf, ch)
	}
	return string(buf)
}
