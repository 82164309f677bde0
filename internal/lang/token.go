// Package lang implements the front end of tcf-e, the small C-like TCF
// language used for the paper's Section 4 programming examples: thickness
// statements (#expr;), NUMA declarations (#1/expr;), thick (thread-wise) and
// flow-common variables, the parallel statement, flow-level functions, and
// multi(prefix)operation intrinsics.
package lang

import (
	"fmt"
	"strings"
)

// TokKind enumerates token kinds.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokString

	// Keywords.
	TokKwInt
	TokKwThick
	TokKwShared
	TokKwLocal
	TokKwFunc
	TokKwIf
	TokKwElse
	TokKwWhile
	TokKwFor
	TokKwParallel
	TokKwReturn
	TokKwBarrier
	TokKwHalt
	TokKwBreak
	TokKwContinue
	TokKwSwitch
	TokKwCase
	TokKwDefault

	// Punctuation.
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBracket
	TokRBracket
	TokSemi
	TokComma
	TokColon
	TokHash
	TokAt
	TokAmpPrefix // '&' used as address-of (lexed as TokAmp; parser decides)

	// Operators.
	TokAssign // =
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokAmp
	TokPipe
	TokCaret
	TokTilde
	TokBang
	TokShl
	TokShr
	TokLt
	TokLe
	TokGt
	TokGe
	TokEq
	TokNe
	TokAndAnd
	TokOrOr
	// Compound assignments.
	TokPlusAssign
	TokMinusAssign
	TokStarAssign
	TokSlashAssign
	TokPercentAssign
	TokAmpAssign
	TokPipeAssign
	TokCaretAssign
	TokShlAssign
	TokShrAssign
)

var kindNames = [...]string{
	TokEOF: "EOF", TokIdent: "identifier", TokInt: "integer", TokString: "string",
	TokKwInt: "int", TokKwThick: "thick", TokKwShared: "shared", TokKwLocal: "local",
	TokKwFunc: "func", TokKwIf: "if", TokKwElse: "else", TokKwWhile: "while",
	TokKwFor: "for", TokKwParallel: "parallel", TokKwReturn: "return",
	TokKwBarrier: "barrier", TokKwHalt: "halt",
	TokKwBreak: "break", TokKwContinue: "continue",
	TokKwSwitch: "switch", TokKwCase: "case", TokKwDefault: "default",
	TokLParen: "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}",
	TokLBracket: "[", TokRBracket: "]", TokSemi: ";", TokComma: ",",
	TokColon: ":", TokHash: "#", TokAt: "@",
	TokAssign: "=", TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/",
	TokPercent: "%", TokAmp: "&", TokPipe: "|", TokCaret: "^", TokTilde: "~",
	TokBang: "!", TokShl: "<<", TokShr: ">>", TokLt: "<", TokLe: "<=",
	TokGt: ">", TokGe: ">=", TokEq: "==", TokNe: "!=", TokAndAnd: "&&", TokOrOr: "||",
	TokPlusAssign: "+=", TokMinusAssign: "-=", TokStarAssign: "*=",
	TokSlashAssign: "/=", TokPercentAssign: "%=", TokAmpAssign: "&=",
	TokPipeAssign: "|=", TokCaretAssign: "^=", TokShlAssign: "<<=", TokShrAssign: ">>=",
}

func (k TokKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// keyword returns the keyword kind of word, or TokIdent.
func keyword(word string) TokKind {
	switch word {
	case "int":
		return TokKwInt
	case "thick":
		return TokKwThick
	case "shared":
		return TokKwShared
	case "local":
		return TokKwLocal
	case "func":
		return TokKwFunc
	case "if":
		return TokKwIf
	case "else":
		return TokKwElse
	case "while":
		return TokKwWhile
	case "for":
		return TokKwFor
	case "parallel":
		return TokKwParallel
	case "return":
		return TokKwReturn
	case "barrier":
		return TokKwBarrier
	case "halt":
		return TokKwHalt
	case "break":
		return TokKwBreak
	case "continue":
		return TokKwContinue
	case "switch":
		return TokKwSwitch
	case "case":
		return TokKwCase
	case "default":
		return TokKwDefault
	}
	return TokIdent
}

// Pos is a source position: 1-based line and byte column.
type Pos struct {
	Line, Col int32
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token: its kind and its extent in the source, 12
// bytes without a pointer, so that a token array is one small allocation the
// garbage collector never looks into. Its text, value and position are read
// from the source.
type Token struct {
	Off  int32 // the token's spelling is src[Off:End]
	End  int32
	Kind TokKind
}

// Pos returns the token's position in src, the source it was scanned from.
func (t Token) Pos(src string) Pos {
	before := src[:t.Off]
	return Pos{
		Line: int32(1 + strings.Count(before, "\n")),
		Col:  t.Off - int32(strings.LastIndexByte(before, '\n')),
	}
}

// Text returns the token's spelling in src, the source it was scanned from:
// the name of an identifier, the digits of an integer, the literal with its
// quotes of a string. It is empty for TokEOF.
func (t Token) Text(src string) string { return src[t.Off:t.End] }

// IntValue returns the value of a TokInt.
func (t Token) IntValue(src string) int64 {
	v, _ := intLiteral(src[t.Off:t.End])
	return v
}

// StringValue returns the value of a TokString: its text without the quotes
// and with the escapes \n, \t, \\ and \" replaced.
func (t Token) StringValue(src string) string {
	return unquote(src[t.Off+1 : t.End-1])
}

// Describe renders the token for a message.
func (t Token) Describe(src string) string {
	switch t.Kind {
	case TokIdent:
		return fmt.Sprintf("ident(%s)", t.Text(src))
	case TokInt:
		return fmt.Sprintf("int(%d)", t.IntValue(src))
	case TokString:
		return fmt.Sprintf("string(%q)", t.StringValue(src))
	}
	return t.Kind.String()
}
