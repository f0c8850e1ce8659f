//===- Parser.cpp - Textual IR parser ----------------------------------------===//
//
// One forward pass over the text with one cursor. Each line is dispatched
// on its first character and parsed in place: identifiers and numbers are
// views into the input, never copied, and names resolve through hash
// tables keyed by views into strings the module already owns. The only
// backward look is over the blanks before a line's end, so parsing is
// linear in the input size.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include "ir/CFG.h"
#include "support/Hash.h"

#include <array>
#include <charconv>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <vector>

using namespace srp;
using namespace srp::ir;

namespace {

/// Open-addressing hash map from a name to an IR object. Slots carry the
/// generation that filled them, so clear() is O(1) and a table reused
/// across many small functions after a huge one stays linear.
template <typename T> class NameMap {
public:
  static uint64_t hash(std::string_view Name) { return fnv1a64(Name); }

  T *find(std::string_view Name, uint64_t Hash) const {
    if (Slots.empty())
      return nullptr;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Gen != Gen)
        return nullptr;
      if (S.Hash == Hash && S.Key == Name)
        return S.Value;
    }
  }

  T *find(std::string_view Name) const { return find(Name, hash(Name)); }

  /// Maps \p Name to \p Value. An existing entry is kept unless
  /// \p Replace is set.
  void insert(std::string_view Name, T *Value, bool Replace) {
    if ((Count + 1) * 2 > Slots.size())
      grow();
    uint64_t Hash = hash(Name);
    size_t I = Hash & Mask;
    for (; Slots[I].Gen == Gen; I = (I + 1) & Mask)
      if (Slots[I].Hash == Hash && Slots[I].Key == Name) {
        if (Replace)
          Slots[I].Value = Value;
        return;
      }
    Slots[I] = {Name, Value, Hash, Gen};
    ++Count;
  }

  void clear() {
    ++Gen;
    Count = 0;
  }

private:
  struct Slot {
    std::string_view Key;
    T *Value = nullptr;
    uint64_t Hash = 0;
    unsigned Gen = 0;
  };

  void grow() {
    std::vector<Slot> Old(Slots.empty() ? 16 : Slots.size() * 2);
    Old.swap(Slots);
    Mask = Slots.size() - 1;
    unsigned OldGen = Gen;
    Gen = 1;
    Count = 0;
    for (const Slot &S : Old)
      if (S.Gen == OldGen)
        insert(S.Key, S.Value, /*Replace=*/false);
  }

  std::vector<Slot> Slots;
  size_t Mask = 0;
  size_t Count = 0;
  unsigned Gen = 1;
};

/// Packs a name of up to eight characters into an integer (identifiers
/// hold no NUL, so distinct names pack to distinct keys); longer names
/// pack to 0, which no mnemonic uses.
uint64_t packName(std::string_view Name) {
  if (Name.size() > 8)
    return 0;
  uint64_t Key = 0;
  for (char C : Name)
    Key = Key << 8 | static_cast<unsigned char>(C);
  return Key;
}

bool lookupOpcode(std::string_view Name, Opcode &Op) {
  constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::Select) + 1;
  static const std::array<uint64_t, NumOpcodes> Keys = [] {
    std::array<uint64_t, NumOpcodes> K;
    for (unsigned I = 0; I != NumOpcodes; ++I)
      K[I] = packName(opcodeName(static_cast<Opcode>(I)));
    return K;
  }();
  uint64_t Key = packName(Name);
  for (unsigned I = 0; I != NumOpcodes; ++I)
    if (Keys[I] == Key && Key) {
      Op = static_cast<Opcode>(I);
      return true;
    }
  return false;
}

/// Identifier characters: [A-Za-z0-9_.].
constexpr std::array<bool, 256> IdentChars = [] {
  std::array<bool, 256> Table{};
  for (int C = 0; C < 256; ++C)
    Table[C] = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
               (C >= '0' && C <= '9') || C == '_' || C == '.';
  return Table;
}();

bool isIdentChar(char C) { return IdentChars[static_cast<unsigned char>(C)]; }

constexpr bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// Characters trimmed from both ends of a line.
constexpr bool isBlank(char C) { return C == ' ' || C == '\t' || C == '\r'; }

/// Temps whose text id is below this bound live in a flat table indexed
/// by the id; others (negative or huge ids) go to a hash map, so `t4000000000`
/// costs no more memory than `t1`.
constexpr int64_t MaxDenseTempId = int64_t(1) << 16;

/// Result of scanning an optional token.
enum class Got { No, Yes, Bad };

class ModuleParser {
public:
  ModuleParser(std::string_view Text, Module &M, std::string &Error)
      : P(Text.data()), End(Text.data() + Text.size()), M(M), Error(Error) {}

  bool run() {
    while (!Eof) {
      beginLine();
      if (lineEmpty()) {
        nextLine();
        continue;
      }
      if (lineStartsWith("global ")) {
        P += 7;
        if (!parseGlobal())
          return false;
        nextLine();
        continue;
      }
      if (lineStartsWith("func ")) {
        if (!parseFunction())
          return false;
        continue;
      }
      return fail("expected 'global' or 'func'");
    }
    if (BadLabel.BB) {
      LineNo = BadLabel.Line;
      return fail("unknown block label", BadLabel.True);
    }
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      M.function(I)->recomputeCFG();
    return true;
  }

private:
  //===------------------------------------------------------------===//
  // Lines. A line's content runs from its first non-blank character to
  // its last one before a '#' comment or the newline.
  //===------------------------------------------------------------===//

  void beginLine() {
    while (P != End && isBlank(*P))
      ++P;
    LineBegin = P;
  }

  bool lineEmpty() const { return P == End || *P == '\n' || *P == '#'; }

  /// True if only blanks lie between \p Q and the end of the line.
  bool restBlank(const char *Q) const {
    while (Q != End && isBlank(*Q))
      ++Q;
    return Q == End || *Q == '\n' || *Q == '#';
  }

  template <size_t N> bool textStartsWith(const char (&Tok)[N]) const {
    return static_cast<size_t>(End - P) >= N - 1 &&
           std::memcmp(P, Tok, N - 1) == 0;
  }

  /// The line content starts with \p Tok (a trailing space in \p Tok must
  /// be followed by more content).
  template <size_t N> bool lineStartsWith(const char (&Tok)[N]) const {
    return textStartsWith(Tok) &&
           (Tok[N - 2] != ' ' || !restBlank(P + N - 1));
  }

  /// The line content is exactly \p Tok.
  template <size_t N> bool lineIs(const char (&Tok)[N]) const {
    return textStartsWith(Tok) && restBlank(P + N - 1);
  }

  /// Skips to the newline (past any comment) and returns the line's last
  /// content character. The line must not be empty.
  const char *skipRest() {
    const char *Last = nullptr;
    while (P != End && *P != '\n' && *P != '#') {
      if (!isBlank(*P))
        Last = P;
      ++P;
    }
    if (!Last) {
      // Only blanks since the cursor: the last content character is
      // behind it (tokens never consume '#' or a newline).
      const char *Q = P;
      while (Q != LineBegin && isBlank(Q[-1]))
        --Q;
      Last = Q - 1;
    }
    while (P != End && *P != '\n')
      ++P;
    return Last;
  }

  /// Moves past the current line's newline. The text always has one
  /// more line than it has newlines.
  void nextLine() {
    while (P != End && *P != '\n')
      ++P;
    if (P == End)
      Eof = true;
    else
      ++P;
    ++LineNo;
  }

  bool fail(std::string_view Message) {
    Error = "line " + std::to_string(LineNo + 1) + ": ";
    Error += Message;
    return false;
  }

  bool fail(std::string_view Message, std::string_view Quoted) {
    fail(Message);
    Error += " '";
    Error += Quoted;
    Error += '\'';
    return false;
  }

  /// Records a statement diagnostic without formatting it: a line that
  /// turns out to be a block label discards it.
  bool bad(const char *Message) {
    Diag = {Message, {}, false};
    return false;
  }

  bool bad(const char *Message, std::string_view Quoted) {
    Diag = {Message, Quoted, true};
    return false;
  }

  bool reportDiag() {
    return Diag.HasQuoted ? fail(Diag.Message, Diag.Quoted)
                          : fail(Diag.Message);
  }

  //===------------------------------------------------------------===//
  // Tokens
  //===------------------------------------------------------------===//

  void skipSpace() {
    while (P != End && (*P == ' ' || *P == '\t'))
      ++P;
  }

  bool eat(char C) {
    skipSpace();
    if (P == End || *P != C)
      return false;
    ++P;
    return true;
  }

  template <size_t N> bool eat(const char (&Tok)[N]) {
    skipSpace();
    if (!textStartsWith(Tok))
      return false;
    P += N - 1;
    return true;
  }

  std::string_view ident() {
    skipSpace();
    const char *Start = P;
    while (P != End && isIdentChar(*P))
      ++P;
    return {Start, static_cast<size_t>(P - Start)};
  }

  /// [+-]?[0-9]+ in int64 range. An out-of-range value records a
  /// diagnostic and yields Bad.
  Got integer(int64_t &Out) {
    skipSpace();
    const char *Start = P;
    bool Negative = false;
    if (P != End && (*P == '-' || *P == '+'))
      Negative = *P++ == '-';
    const char *Digits = P;
    uint64_t Magnitude = 0;
    bool Overflow = false;
    for (; P != End && isDigit(*P); ++P)
      Overflow |= __builtin_mul_overflow(Magnitude, 10u, &Magnitude) |
                  __builtin_add_overflow(Magnitude, unsigned(*P - '0'),
                                         &Magnitude);
    if (P == Digits) {
      P = Start;
      return Got::No;
    }
    if (Overflow ||
        Magnitude > uint64_t(std::numeric_limits<int64_t>::max()) + Negative) {
      bad("number out of range", {Start, size_t(P - Start)});
      return Got::Bad;
    }
    Out = Negative ? static_cast<int64_t>(0 - Magnitude)
                   : static_cast<int64_t>(Magnitude);
    return Got::Yes;
  }

  /// `t` INT, resolved to the current function's temp for that text id.
  Got tempRef(unsigned &Out) {
    skipSpace();
    if (P == End || *P != 't')
      return Got::No;
    const char *Saved = P++;
    int64_t TextId;
    Got R = integer(TextId);
    if (R == Got::No)
      P = Saved;
    else if (R == Got::Yes)
      Out = tempFor(TextId);
    return R;
  }

  /// A temp, an integer, or a float (a trailing 'f' or any of ".e+-"
  /// after the first digit makes it one). The token runs over the same
  /// characters as always; it must be a well-formed, in-range number.
  Got operand(Operand &Out) {
    unsigned Temp;
    Got R = tempRef(Temp);
    if (R == Got::Yes)
      Out = Operand::temp(Temp);
    if (R != Got::No)
      return R;
    const char *Start = P, *Q = P;
    if (Q != End && (*Q == '-' || *Q == '+'))
      ++Q;
    bool SawDigit = false, Floaty = false;
    for (; Q != End; ++Q) {
      if (isDigit(*Q))
        SawDigit = true;
      else if (*Q == '.' || *Q == 'e' || *Q == '+' || *Q == '-')
        Floaty = true;
      else
        break;
    }
    if (!SawDigit)
      return Got::No;
    bool Suffix = Q != End && *Q == 'f';
    std::string_view Token(Start, static_cast<size_t>(Q - Start));
    if (!Suffix && !Floaty) {
      int64_t Value;
      Got IR = integer(Value);
      if (IR == Got::Yes)
        Out = Operand::constInt(Value);
      return IR;
    }
    // from_chars takes no leading '+'.
    const char *First = *Start == '+' ? Start + 1 : Start;
    double Value;
    auto [Ptr, Ec] =
        std::from_chars(First, Q, Value, std::chars_format::general);
    if (Ec == std::errc::result_out_of_range) {
      bad("number out of range", Token);
      return Got::Bad;
    }
    if (Ec != std::errc() || Ptr != Q || (First != Start && *First == '-')) {
      bad("malformed number", Token);
      return Got::Bad;
    }
    P = Q + Suffix;
    Out = Operand::constFloat(Value);
    return Got::Yes;
  }

  /// Required temp/operand: records \p Message if there is none.
  bool expectTemp(unsigned &Out, const char *Message) {
    Got R = tempRef(Out);
    return R == Got::Yes || (R == Got::No && bad(Message));
  }

  bool expectOperand(Operand &Out, const char *Message) {
    Got R = operand(Out);
    return R == Got::Yes || (R == Got::No && bad(Message));
  }

  //===------------------------------------------------------------===//
  // Declarations
  //===------------------------------------------------------------===//

  bool parseTypeDecl(TypeKind &Type, unsigned &NumElems) {
    if (!eat(':'))
      return fail("expected ':' in declaration");
    std::string_view T = ident();
    if (T == "int")
      Type = TypeKind::Int;
    else if (T == "float")
      Type = TypeKind::Float;
    else
      return fail("unknown type", T);
    NumElems = 1;
    if (eat('[')) {
      int64_t N;
      if (integer(N) != Got::Yes || N < 1 ||
          N > std::numeric_limits<unsigned>::max() || !eat(']'))
        return fail("malformed array extent");
      NumElems = static_cast<unsigned>(N);
    }
    return true;
  }

  /// Consumes an optional trailing `secret` taint annotation (globals,
  /// formals, locals). The keyword is only reserved in this position.
  bool parseSecretSuffix() {
    const char *Saved = P;
    if (ident() == "secret")
      return true;
    P = Saved;
    return false;
  }

  bool parseGlobal() {
    std::string_view Name = ident();
    if (Name.empty())
      return fail("global without a name");
    TypeKind Type;
    unsigned NumElems;
    if (!parseTypeDecl(Type, NumElems))
      return false;
    Symbol *Sym = M.createGlobal(std::string(Name), Type, NumElems);
    Sym->Secret = parseSecretSuffix();
    Globals.insert(Sym->Name, Sym, /*Replace=*/true);
    return true;
  }

  bool parseLocal() {
    std::string_view Name = ident();
    TypeKind Type;
    unsigned NumElems;
    if (Name.empty() || !parseTypeDecl(Type, NumElems))
      return false;
    Symbol *Local = M.createLocal(F, std::string(Name), Type, NumElems);
    Local->Secret = parseSecretSuffix();
    Locals.insert(Local->Name, Local, /*Replace=*/true);
    return true;
  }

  //===------------------------------------------------------------===//
  // Functions
  //===------------------------------------------------------------===//

  bool parseFunction() {
    P += 4; // "func"
    std::string_view Name = ident();
    if (Name.empty() || !eat('('))
      return fail("malformed function header");
    F = M.createFunction(std::string(Name));
    Functions.insert(F->getName(), F, /*Replace=*/true);
    Locals.clear();
    Labels.clear();
    resetTemps();
    CurBB = nullptr;

    if (!eat(')')) {
      while (true) {
        std::string_view PName = ident();
        TypeKind Type;
        unsigned NumElems;
        if (PName.empty() || !parseTypeDecl(Type, NumElems))
          return fail("malformed parameter list");
        Symbol *Formal = M.createLocal(F, std::string(PName), Type, NumElems,
                                       /*IsFormal=*/true);
        Formal->Secret = parseSecretSuffix();
        Locals.insert(Formal->Name, Formal, /*Replace=*/true);
        if (eat(')'))
          break;
        if (!eat(','))
          return fail("expected ',' or ')' in parameter list");
      }
    }
    if (eat("->")) {
      std::string_view T = ident();
      F->HasReturnValue = true;
      F->ReturnType = T == "float" ? TypeKind::Float : TypeKind::Int;
    }
    if (!eat('{'))
      return fail("expected '{' after function header");
    nextLine();

    while (!Eof) {
      beginLine();
      if (lineEmpty()) {
        nextLine();
        continue;
      }
      if (lineIs("}")) {
        nextLine();
        resolveBranches();
        return true;
      }
      if (lineStartsWith("local ")) {
        P += 6;
        if (!parseLocal())
          return false;
        nextLine();
        continue;
      }
      // Any line whose last character is ':' is a block label, which is
      // only known at the line's end: the line is scanned as a statement
      // first (with no effect the label case cannot undo), then classified.
      Stmt S;
      bool Scanned = scanStatement(S);
      const char *Last = skipRest();
      if (*Last == ':') {
        dropLineTemps();
        CurBB = F->createBlock(
            std::string(LineBegin, static_cast<size_t>(Last - LineBegin)));
        Labels.insert(CurBB->getName(), CurBB, /*Replace=*/false);
        HasTerm = false;
        nextLine();
        continue;
      }
      if (!CurBB)
        return fail("statement before the first block label");
      if (HasTerm)
        return fail("statement after the block terminator");
      if (!Scanned)
        return reportDiag();
      commitStatement(S);
      nextLine();
    }
    return fail("missing '}' at end of function");
  }

  //===------------------------------------------------------------===//
  // Temps. Ids are handed out on first mention, in mention order; the
  // current line's new temps are provisional until the line commits.
  //===------------------------------------------------------------===//

  unsigned &tempSlot(int64_t TextId) {
    if (TextId < 0 || TextId >= MaxDenseTempId)
      return SparseTemps.try_emplace(TextId, NoTemp).first->second;
    size_t Index = static_cast<size_t>(TextId);
    if (Index >= DenseTemps.size())
      DenseTemps.resize(Index + 1, NoTemp);
    return DenseTemps[Index];
  }

  void unmapTemp(int64_t TextId) {
    if (TextId < 0 || TextId >= MaxDenseTempId)
      SparseTemps.erase(TextId);
    else
      DenseTemps[static_cast<size_t>(TextId)] = NoTemp;
  }

  /// Temps are created on first mention with a provisional Int type; the
  /// defining statement patches the type (uses can precede defs in
  /// promoted code, e.g. invala).
  unsigned tempFor(int64_t TextId) {
    unsigned &Id = tempSlot(TextId);
    if (Id == NoTemp) {
      Id = static_cast<unsigned>(TempTextIds.size());
      TempTextIds.push_back(TextId);
    }
    return Id;
  }

  void dropLineTemps() {
    while (TempTextIds.size() > F->numTemps()) {
      unmapTemp(TempTextIds.back());
      TempTextIds.pop_back();
    }
  }

  void resetTemps() {
    for (int64_t TextId : TempTextIds)
      unmapTemp(TextId);
    TempTextIds.clear();
  }

  //===------------------------------------------------------------===//
  // Statements: scanned into a Stmt (or CurTerm), then committed.
  //===------------------------------------------------------------===//

  Symbol *lookupSymbol(std::string_view Name) const {
    uint64_t Hash = NameMap<Symbol>::hash(Name);
    if (Symbol *Local = Locals.find(Name, Hash))
      return Local;
    return Globals.find(Name, Hash);
  }

  bool scanMemRef(MemRef &Ref) {
    while (eat('*'))
      ++Ref.Depth;
    std::string_view Name = ident();
    Ref.Base = lookupSymbol(Name);
    if (!Ref.Base)
      return bad("unknown symbol", Name);
    if (eat('[')) {
      if (!expectOperand(Ref.Index, "malformed index"))
        return false;
      if (!eat(']'))
        return bad("malformed index");
    }
    if (eat('{')) {
      int64_t Off;
      if (integer(Off) != Got::Yes || !eat('}'))
        return bad("malformed offset");
      Ref.Offset = Off;
    }
    if (eat(":flt"))
      Ref.ValueType = TypeKind::Float;
    else if (Ref.Depth == 0)
      Ref.ValueType = Ref.Base->ElemType;
    else
      Ref.ValueType = TypeKind::Int;
    return true;
  }

  bool scanStatement(Stmt &S) {
    IsTerm = false;
    switch (*P) {
    case 'b':
      if (lineStartsWith("br ") || lineIs("br"))
        return scanBr();
      break;
    case 'c':
      if (lineStartsWith("condbr "))
        return scanCondBr();
      if (lineStartsWith("call "))
        return scanCall(S, NoTemp);
      break;
    case 'r':
      if (lineIs("ret") || lineStartsWith("ret "))
        return scanRet();
      break;
    case 's':
      if (textStartsWith("st"))
        return scanStore(S);
      break;
    case 'i':
      if (lineStartsWith("invala ")) {
        P += 7;
        S.Kind = StmtKind::Invala;
        return expectTemp(S.Dst, "invala needs a temp");
      }
      break;
    case 'p':
      if (lineStartsWith("print ")) {
        P += 6;
        S.Kind = StmtKind::Print;
        return expectOperand(S.A, "print needs an operand");
      }
      break;
    case 't':
      return scanDefinition(S);
    }
    return bad("unrecognized statement");
  }

  /// tN = ...
  bool scanDefinition(Stmt &S) {
    unsigned Dst;
    Got R = tempRef(Dst);
    if (R == Got::Bad)
      return false;
    if (R == Got::No || !eat('='))
      return bad("unrecognized statement");
    S.Dst = Dst;
    skipSpace();
    if (textStartsWith("ld"))
      return scanLoad(S);
    if (eat("addrof")) {
      S.Kind = StmtKind::AddrOf;
      return scanMemRef(S.Ref);
    }
    if (eat("alloc")) {
      S.Kind = StmtKind::Alloc;
      if (!expectOperand(S.A, "malformed alloc"))
        return false;
      if (!eat('@'))
        return bad("malformed alloc");
      HeapSite = ident();
      return true;
    }
    if (textStartsWith("call"))
      return scanCall(S, Dst);
    return scanAssign(S);
  }

  bool scanLoad(Stmt &S) {
    P += 2; // "ld"
    S.Kind = StmtKind::Load;
    if (eat('<')) {
      static const std::pair<std::string_view, SpecFlag> Flags[] = {
          {"ld.a", SpecFlag::LdA},        {"ld.sa", SpecFlag::LdSA},
          {"ld.c.clr", SpecFlag::LdC},    {"ld.c.nc", SpecFlag::LdCnc},
          {"chk.a.clr", SpecFlag::ChkA},  {"chk.a.nc", SpecFlag::ChkAnc},
      };
      std::string_view FlagName = ident();
      bool Found = false;
      for (auto &[Name, Flag] : Flags)
        if (FlagName == Name) {
          S.Flag = Flag;
          Found = true;
        }
      if (!Found || !eat('>'))
        return bad("unknown load flag");
    }
    if (!scanMemRef(S.Ref))
      return false;
    if (eat("@addr(")) {
      if (!expectTemp(S.AddrSrc, "malformed @addr()"))
        return false;
      if (!eat(')'))
        return bad("malformed @addr()");
    }
    if (eat("addr->") && !expectTemp(S.AddrDst, "malformed addr->"))
      return false;
    return true;
  }

  bool scanStore(Stmt &S) {
    P += 2; // "st"
    S.Kind = StmtKind::Store;
    if (eat("<st.a>"))
      S.StA = true;
    if (!scanMemRef(S.Ref))
      return false;
    if (!eat('='))
      return bad("store without '='");
    if (!expectOperand(S.A, "store without a value"))
      return false;
    if (eat("addr->") && !expectTemp(S.AddrDst, "malformed addr->"))
      return false;
    if (eat("alat->") && !expectTemp(S.AlatDst, "malformed alat->"))
      return false;
    return true;
  }

  bool scanAssign(Stmt &S) {
    std::string_view OpName = ident();
    if (!lookupOpcode(OpName, S.Op))
      return bad("unknown opcode", OpName);
    if (!expectOperand(S.A, "assign without operands"))
      return false;
    if (eat(',')) {
      if (!expectOperand(S.B, "malformed second operand"))
        return false;
      if (eat(',') && !expectOperand(S.C, "malformed third operand"))
        return false;
    }
    return true;
  }

  bool scanCall(Stmt &S, unsigned Dst) {
    P += 4; // "call"
    std::string_view Name = ident();
    S.Kind = StmtKind::Call;
    S.Dst = Dst;
    S.Callee = Functions.find(Name);
    if (!S.Callee)
      return bad("call to unknown function", Name);
    if (!eat('('))
      return bad("call without '('");
    if (eat(')'))
      return true;
    while (true) {
      Operand Arg;
      if (!expectOperand(Arg, "malformed call argument"))
        return false;
      S.Args.push_back(Arg);
      if (eat(')'))
        return true;
      if (!eat(','))
        return bad("expected ',' or ')' in call");
    }
  }

  bool scanBr() {
    P += 2; // "br"
    IsTerm = true;
    CurTerm = Terminator();
    CurTerm.Kind = TermKind::Br;
    CurBranch = {nullptr, ident(), {}, false, LineNo};
    return !CurBranch.True.empty() || bad("br without a target");
  }

  bool scanCondBr() {
    P += 6; // "condbr"
    IsTerm = true;
    CurTerm = Terminator();
    CurTerm.Kind = TermKind::CondBr;
    if (!expectOperand(CurTerm.Cond, "malformed condbr"))
      return false;
    if (!eat(','))
      return bad("malformed condbr");
    std::string_view True = ident();
    if (!eat(','))
      return bad("condbr needs two targets");
    CurBranch = {nullptr, True, ident(), true, LineNo};
    return true;
  }

  bool scanRet() {
    P += 3; // "ret"
    IsTerm = true;
    CurTerm = Terminator();
    CurTerm.Kind = TermKind::Ret;
    return restBlank(P) ||
           expectOperand(CurTerm.RetVal, "malformed return value");
  }

  /// Creates the line's new temps, applies the types the statement
  /// implies and appends it (or installs the terminator).
  void commitStatement(Stmt &S) {
    while (F->numTemps() < TempTextIds.size())
      F->createTemp(TypeKind::Int);
    if (IsTerm) {
      CurBB->term() = CurTerm;
      if (CurTerm.Kind != TermKind::Ret) {
        CurBranch.BB = CurBB;
        Pending.push_back(CurBranch);
      }
      HasTerm = true;
      return;
    }
    switch (S.Kind) {
    case StmtKind::Load:
      if (S.AddrDst != NoTemp)
        F->setTempType(S.AddrDst, TypeKind::Int);
      F->setTempType(S.Dst, S.Ref.ValueType);
      break;
    case StmtKind::Store:
      if (S.AddrDst != NoTemp)
        F->setTempType(S.AddrDst, TypeKind::Int);
      break;
    case StmtKind::AddrOf:
      S.Ref.Base->AddressTaken = true;
      F->setTempType(S.Dst, TypeKind::Int);
      break;
    case StmtKind::Alloc:
      S.HeapSym = M.createHeapSite(std::string(HeapSite), TypeKind::Int);
      F->setTempType(S.Dst, TypeKind::Int);
      break;
    case StmtKind::Call:
      if (S.Dst != NoTemp)
        F->setTempType(S.Dst, S.Callee->HasReturnValue
                                    ? S.Callee->ReturnType
                                    : TypeKind::Int);
      break;
    case StmtKind::Assign: {
      TypeKind Result =
          opcodeProducesFloat(S.Op) ? TypeKind::Float : TypeKind::Int;
      if (S.Op == Opcode::Copy || S.Op == Opcode::Select) {
        const Operand &Src = S.Op == Opcode::Select ? S.B : S.A;
        Result = Src.K == Operand::Kind::ConstFloat ||
                         (Src.isTemp() &&
                          F->tempType(Src.getTemp()) == TypeKind::Float)
                     ? TypeKind::Float
                     : TypeKind::Int;
      }
      F->setTempType(S.Dst, Result);
      break;
    }
    case StmtKind::Invala:
    case StmtKind::Print:
      break;
    }
    // Stamp the source line so later diagnostics (srp-lint) can point
    // back into the .sir file.
    S.Line = LineNo + 1;
    CurBB->append(std::move(S));
  }

  /// Resolves the closed function's branch labels. An unknown label is
  /// reported only once the whole module has parsed: a later syntax
  /// error takes precedence, and of several unknown labels the first in
  /// the text wins.
  void resolveBranches() {
    for (const PendingBranch &B : Pending) {
      if (BadLabel.BB)
        break;
      BasicBlock *T = Labels.find(B.True);
      BasicBlock *FT = B.IsCond ? Labels.find(B.False) : nullptr;
      if (!T || (B.IsCond && !FT)) {
        BadLabel = B;
        if (T)
          BadLabel.True = B.False;
        break;
      }
      B.BB->term().Target = T;
      B.BB->term().FalseTarget = FT;
    }
    Pending.clear();
  }

  struct PendingBranch {
    BasicBlock *BB = nullptr;
    std::string_view True, False;
    bool IsCond = false;
    size_t Line = 0;
  };

  struct Diagnostic {
    const char *Message = nullptr;
    std::string_view Quoted;
    bool HasQuoted = false;
  };

  const char *P;
  const char *End;
  const char *LineBegin = nullptr;
  size_t LineNo = 0;
  bool Eof = false;

  Module &M;
  std::string &Error;
  Diagnostic Diag;

  NameMap<Symbol> Globals;
  NameMap<Symbol> Locals; ///< current function
  NameMap<Function> Functions;
  NameMap<BasicBlock> Labels; ///< current function; first definition wins
  std::vector<unsigned> DenseTemps; ///< text id -> temp id
  std::unordered_map<int64_t, unsigned> SparseTemps;
  std::vector<int64_t> TempTextIds; ///< temp id -> text id
  Function *F = nullptr;
  BasicBlock *CurBB = nullptr;
  bool HasTerm = false;

  bool IsTerm = false;
  Terminator CurTerm;
  PendingBranch CurBranch;
  std::string_view HeapSite;
  std::vector<PendingBranch> Pending; ///< current function
  PendingBranch BadLabel;             ///< first unresolvable branch
};

} // namespace

bool srp::ir::parseModule(std::string_view Text, Module &M,
                          std::string &Error) {
  return ModuleParser(Text, M, Error).run();
}
