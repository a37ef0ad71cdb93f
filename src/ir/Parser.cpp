//===- Parser.cpp - Textual IR parser ----------------------------------------//

#include "ir/Parser.h"

#include <map>
#include <optional>
#include <set>
#include <unordered_map>

namespace veriopt {

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

enum class Tok {
  Eof,
  LocalId,  // %name
  GlobalId, // @name
  AttrId,   // #0
  Word,     // bare identifier / keyword / type name
  Int,      // integer literal (possibly negative)
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Comma,
  Equals,
  Colon,
  Star,
};

struct Token {
  Tok Kind = Tok::Eof;
  std::string Text; // identifier payload (without sigil) or literal text
  int64_t IntVal = 0;
  unsigned Line = 1;
};

class Lexer {
public:
  explicit Lexer(const std::string &Src) : Src(Src) { advance(); }

  const Token &peek() const { return Cur; }
  Token take() {
    Token T = Cur;
    advance();
    return T;
  }

private:
  static bool isIdentChar(char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
           C == '.' || C == '-' || C == '$';
  }

  void advance() {
    // Skip whitespace and ';' comments.
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == ';') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
    Cur = Token();
    Cur.Line = Line;
    if (Pos >= Src.size())
      return;

    char C = Src[Pos];
    auto lexIdentifier = [&](Tok Kind) {
      ++Pos; // consume sigil
      size_t Start = Pos;
      // Allow quoted names: %"x y".
      if (Pos < Src.size() && Src[Pos] == '"') {
        ++Pos;
        Start = Pos;
        while (Pos < Src.size() && Src[Pos] != '"')
          ++Pos;
        Cur.Kind = Kind;
        Cur.Text = Src.substr(Start, Pos - Start);
        if (Pos < Src.size())
          ++Pos; // closing quote
        return;
      }
      while (Pos < Src.size() && isIdentChar(Src[Pos]))
        ++Pos;
      Cur.Kind = Kind;
      Cur.Text = Src.substr(Start, Pos - Start);
    };

    switch (C) {
    case '%':
      lexIdentifier(Tok::LocalId);
      return;
    case '@':
      lexIdentifier(Tok::GlobalId);
      return;
    case '#':
      lexIdentifier(Tok::AttrId);
      return;
    case '!':
      // Metadata reference: lex as a word token "!..." so the parser can
      // reject it with a clear message.
      lexIdentifier(Tok::Word);
      Cur.Text = "!" + Cur.Text;
      return;
    case '(':
      Cur.Kind = Tok::LParen;
      ++Pos;
      return;
    case ')':
      Cur.Kind = Tok::RParen;
      ++Pos;
      return;
    case '{':
      Cur.Kind = Tok::LBrace;
      ++Pos;
      return;
    case '}':
      Cur.Kind = Tok::RBrace;
      ++Pos;
      return;
    case '[':
      Cur.Kind = Tok::LBracket;
      ++Pos;
      return;
    case ']':
      Cur.Kind = Tok::RBracket;
      ++Pos;
      return;
    case ',':
      Cur.Kind = Tok::Comma;
      ++Pos;
      return;
    case '=':
      Cur.Kind = Tok::Equals;
      ++Pos;
      return;
    case ':':
      Cur.Kind = Tok::Colon;
      ++Pos;
      return;
    case '*':
      Cur.Kind = Tok::Star;
      ++Pos;
      return;
    default:
      break;
    }

    if (std::isdigit(static_cast<unsigned char>(C)) ||
        (C == '-' && Pos + 1 < Src.size() &&
         std::isdigit(static_cast<unsigned char>(Src[Pos + 1])))) {
      size_t Start = Pos;
      if (C == '-')
        ++Pos;
      while (Pos < Src.size() &&
             std::isdigit(static_cast<unsigned char>(Src[Pos])))
        ++Pos;
      std::string Text = Src.substr(Start, Pos - Start);
      // Numeric label / identifier contexts see this as text too.
      Cur.Kind = Tok::Int;
      Cur.Text = Text;
      errno = 0;
      Cur.IntVal = static_cast<int64_t>(strtoull(
          Text[0] == '-' ? Text.c_str() + 1 : Text.c_str(), nullptr, 10));
      if (Text[0] == '-')
        Cur.IntVal = -Cur.IntVal;
      return;
    }

    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = Pos;
      while (Pos < Src.size() && isIdentChar(Src[Pos]))
        ++Pos;
      Cur.Kind = Tok::Word;
      Cur.Text = Src.substr(Start, Pos - Start);
      return;
    }

    // Unknown character: emit as a word so the parser reports it.
    Cur.Kind = Tok::Word;
    Cur.Text = std::string(1, C);
    ++Pos;
  }

  const std::string &Src;
  size_t Pos = 0;
  unsigned Line = 1;
  Token Cur;
};

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

/// Struct layout info for lowering struct GEPs to byte offsets.
struct StructLayout {
  std::vector<Type *> Fields;
  std::vector<unsigned> Offsets;
  unsigned Size = 0;
};

const std::set<std::string> &skippableAttrs() {
  static const std::set<std::string> S = {
      "dso_local",  "internal",   "private",    "local_unnamed_addr",
      "unnamed_addr", "noundef",  "zeroext",    "signext",
      "nonnull",    "noalias",    "nocapture",  "readonly",
      "writeonly",  "inreg",      "returned",   "nsw", // flag handled inline
      "tail",       "musttail",   "notail",     "fastcc",
      "ccc",        "hidden",     "protected",  "default",
  };
  return S;
}

class Parser {
public:
  explicit Parser(const std::string &Text) : Lex(Text) {}

  ErrorOr<std::unique_ptr<Module>> run() {
    auto M = std::make_unique<Module>();
    Mod = M.get();
    while (Lex.peek().Kind != Tok::Eof) {
      const Token &T = Lex.peek();
      if (T.Kind == Tok::Word && T.Text == "define") {
        if (!parseDefine())
          return takeError();
      } else if (T.Kind == Tok::Word && T.Text == "declare") {
        if (!parseDeclare())
          return takeError();
      } else if (T.Kind == Tok::LocalId) {
        if (!parseStructDecl())
          return takeError();
      } else if (T.Kind == Tok::Word && (T.Text == "attributes" ||
                                         T.Text == "source_filename" ||
                                         T.Text == "target")) {
        skipTopLevelDirective();
      } else {
        return fail("unexpected token '" + describe(T) + "' at module level");
      }
    }
    return M;
  }

private:
  ErrorOr<std::unique_ptr<Module>> takeError() {
    return ErrorOr<std::unique_ptr<Module>>(Error{ErrMsg, ErrLine});
  }

  bool fail2(const std::string &Msg) {
    if (ErrMsg.empty()) {
      ErrMsg = Msg;
      ErrLine = Lex.peek().Line;
    }
    return false;
  }
  // fail() used in contexts returning ErrorOr from run(); keep both spellings.
  ErrorOr<std::unique_ptr<Module>> fail(const std::string &Msg) {
    fail2(Msg);
    return takeError();
  }

  static std::string describe(const Token &T) {
    switch (T.Kind) {
    case Tok::Eof:
      return "<eof>";
    case Tok::LocalId:
      return "%" + T.Text;
    case Tok::GlobalId:
      return "@" + T.Text;
    case Tok::AttrId:
      return "#" + T.Text;
    default:
      return T.Text.empty() ? tokName(T.Kind) : T.Text;
    }
  }

  static std::string tokName(Tok K) {
    switch (K) {
    case Tok::LParen:
      return "(";
    case Tok::RParen:
      return ")";
    case Tok::LBrace:
      return "{";
    case Tok::RBrace:
      return "}";
    case Tok::LBracket:
      return "[";
    case Tok::RBracket:
      return "]";
    case Tok::Comma:
      return ",";
    case Tok::Equals:
      return "=";
    case Tok::Colon:
      return ":";
    case Tok::Star:
      return "*";
    default:
      return "<token>";
    }
  }

  bool expect(Tok K, const char *What) {
    if (Lex.peek().Kind != K)
      return fail2(std::string("expected ") + What + ", found '" +
                   describe(Lex.peek()) + "'");
    Lex.take();
    return true;
  }

  void skipAttrTokens() {
    while (true) {
      const Token &T = Lex.peek();
      if (T.Kind == Tok::AttrId) {
        Lex.take();
        continue;
      }
      if (T.Kind == Tok::Word && skippableAttrs().count(T.Text) &&
          T.Text != "nsw") {
        Lex.take();
        continue;
      }
      break;
    }
  }

  void skipTopLevelDirective() {
    // Consume tokens until we reach something that can start a new top-level
    // entity. Handles `attributes #0 = { ... }` and `target ... = "..."`.
    Lex.take(); // the directive keyword
    int Depth = 0;
    while (Lex.peek().Kind != Tok::Eof) {
      Tok K = Lex.peek().Kind;
      if (Depth == 0 && K == Tok::Word &&
          (Lex.peek().Text == "define" || Lex.peek().Text == "declare" ||
           Lex.peek().Text == "attributes" || Lex.peek().Text == "target" ||
           Lex.peek().Text == "source_filename"))
        return;
      if (K == Tok::LBrace)
        ++Depth;
      if (K == Tok::RBrace) {
        --Depth;
        Lex.take();
        if (Depth <= 0)
          return;
        continue;
      }
      Lex.take();
    }
  }

  /// Parse a type. Returns nullptr on failure (error recorded).
  /// Struct names resolve for GEP/alloca lowering only; as a *value* type a
  /// struct is illegal. `StructName` receives the struct's name when the
  /// parsed type was a named struct (so callers that can lower it may).
  Type *parseType(std::string *StructName = nullptr) {
    const Token &T = Lex.peek();
    Type *Base = nullptr;
    if (T.Kind == Tok::Word) {
      const std::string &W = T.Text;
      if (W == "void")
        Base = Type::getVoid();
      else if (W == "ptr")
        Base = Type::getPtr();
      else if (W.size() >= 2 && W[0] == 'i') {
        unsigned Width = 0;
        for (size_t I = 1; I < W.size(); ++I) {
          if (!std::isdigit(static_cast<unsigned char>(W[I]))) {
            Width = 0;
            break;
          }
          Width = Width * 10 + (W[I] - '0');
        }
        if (Width && Type::isLegalIntWidth(Width))
          Base = Type::getInt(Width);
        else if (Width) {
          fail2("unsupported integer width '" + W + "'");
          return nullptr;
        }
      }
      if (Base)
        Lex.take();
    } else if (T.Kind == Tok::LocalId) {
      // Named struct type.
      auto It = Structs.find(T.Text);
      if (It == Structs.end()) {
        fail2("unknown struct type '%" + T.Text + "'");
        return nullptr;
      }
      if (StructName)
        *StructName = T.Text;
      Lex.take();
      // Struct-typed values are not supported; struct types are only legal
      // behind a pointer or as a GEP/alloca source type. Callers decide.
      Base = Type::getPtr(); // placeholder; '*' suffix handled below.
      // Mark: a bare struct type (no '*') is only legal where StructName is
      // consumed; represent it as ptr and let the caller use StructName.
      if (Lex.peek().Kind != Tok::Star)
        return Base;
    }
    if (!Base) {
      fail2("expected type, found '" + describe(Lex.peek()) + "'");
      return nullptr;
    }
    // Typed-pointer suffixes collapse to opaque ptr.
    bool AnyStar = false;
    while (Lex.peek().Kind == Tok::Star) {
      Lex.take();
      AnyStar = true;
    }
    if (AnyStar)
      return Type::getPtr();
    return Base;
  }

  bool parseStructDecl() {
    Token Name = Lex.take(); // %struct.S
    if (!expect(Tok::Equals, "'='"))
      return false;
    if (Lex.peek().Kind != Tok::Word || Lex.peek().Text != "type")
      return fail2("expected 'type' in struct declaration");
    Lex.take();
    if (!expect(Tok::LBrace, "'{'"))
      return false;
    StructLayout L;
    if (Lex.peek().Kind != Tok::RBrace) {
      while (true) {
        Type *FieldTy = parseType();
        if (!FieldTy)
          return false;
        if (!FieldTy->isInteger() && !FieldTy->isPointer())
          return fail2("unsupported struct field type");
        L.Fields.push_back(FieldTy);
        if (Lex.peek().Kind != Tok::Comma)
          break;
        Lex.take();
      }
    }
    if (!expect(Tok::RBrace, "'}'"))
      return false;
    // Natural alignment layout.
    unsigned Offset = 0, MaxAlign = 1;
    for (Type *F : L.Fields) {
      unsigned Sz = F->getStoreSize();
      unsigned Align = Sz;
      Offset = (Offset + Align - 1) / Align * Align;
      L.Offsets.push_back(Offset);
      Offset += Sz;
      MaxAlign = std::max(MaxAlign, Align);
    }
    L.Size = (Offset + MaxAlign - 1) / MaxAlign * MaxAlign;
    Structs[Name.Text] = L;
    return true;
  }

  bool parseDeclare() {
    Lex.take(); // declare
    skipAttrTokens();
    Type *RetTy = parseType();
    if (!RetTy)
      return false;
    if (Lex.peek().Kind != Tok::GlobalId)
      return fail2("expected function name after 'declare'");
    std::string Name = Lex.take().Text;
    if (!expect(Tok::LParen, "'('"))
      return false;
    std::vector<Type *> Params;
    if (Lex.peek().Kind != Tok::RParen) {
      while (true) {
        Type *PTy = parseType();
        if (!PTy)
          return false;
        skipAttrTokens();
        Params.push_back(PTy);
        if (Lex.peek().Kind != Tok::Comma)
          break;
        Lex.take();
      }
    }
    if (!expect(Tok::RParen, "')'"))
      return false;
    skipAttrTokens();
    if (!Mod->getFunction(Name))
      Mod->addFunction(std::make_unique<Function>(Name, RetTy, Params, true));
    return true;
  }

  bool parseDefine() {
    Lex.take(); // define
    skipAttrTokens();
    Type *RetTy = parseType();
    if (!RetTy)
      return false;
    if (Lex.peek().Kind != Tok::GlobalId)
      return fail2("expected function name after 'define'");
    std::string Name = Lex.take().Text;
    if (Mod->getFunction(Name))
      return fail2("redefinition of function '@" + Name + "'");
    if (!expect(Tok::LParen, "'('"))
      return false;

    std::vector<Type *> ParamTys;
    std::vector<std::string> ParamNames;
    if (Lex.peek().Kind != Tok::RParen) {
      while (true) {
        Type *PTy = parseType();
        if (!PTy)
          return false;
        if (PTy->isVoid())
          return fail2("parameter of type void");
        skipAttrTokens();
        std::string PName;
        if (Lex.peek().Kind == Tok::LocalId)
          PName = Lex.take().Text;
        ParamTys.push_back(PTy);
        ParamNames.push_back(PName);
        if (Lex.peek().Kind != Tok::Comma)
          break;
        Lex.take();
      }
    }
    if (!expect(Tok::RParen, "')'"))
      return false;
    skipAttrTokens();
    if (!expect(Tok::LBrace, "'{'"))
      return false;

    auto FOwner =
        std::make_unique<Function>(Name, RetTy, ParamTys, /*Decl=*/false);
    F = FOwner.get();
    Values.clear();
    Pending.clear();
    BlockMap.clear();
    Defined.clear();
    DefOrder.clear();
    CurBB = nullptr;

    for (unsigned I = 0; I < ParamNames.size(); ++I) {
      std::string PName =
          ParamNames[I].empty() ? std::to_string(I) : ParamNames[I];
      F->getArg(I)->setName(PName);
      if (Values.count(PName))
        return fail2("duplicate parameter name '%" + PName + "'");
      Values[PName] = F->getArg(I);
    }

    // Body. Hard cap on statements (labels + instructions) so adversarial
    // emissions degrade into a parse error instead of unbounded memory use.
    constexpr uint64_t MaxBodyItems = 1u << 20;
    uint64_t BodyItems = 0;
    while (Lex.peek().Kind != Tok::RBrace) {
      if (Lex.peek().Kind == Tok::Eof)
        return fail2("unexpected end of input inside function body");
      if (++BodyItems > MaxBodyItems)
        return fail2("function body exceeds maximum size");
      // Block label? (word or int followed by ':')
      if ((Lex.peek().Kind == Tok::Word || Lex.peek().Kind == Tok::Int) &&
          isLabelAhead()) {
        Token L = Lex.take();
        if (Lex.peek().Kind != Tok::Colon)
          return fail2("expected ':' after label '" + L.Text + "'");
        Lex.take(); // ':'
        if (!startBlock(L.Text))
          return false;
        continue;
      }
      if (!CurBB) {
        if (!F->empty())
          return fail2("instruction after terminator requires a block label");
        // Unlabelled entry block (kept out of the label namespace).
        CurBB = F->createBlock("");
        Defined.insert(CurBB);
        DefOrder.push_back(CurBB);
      }
      if (!parseInstruction())
        return false;
    }
    Lex.take(); // '}'
    skipAttrTokens();

    // All forward references must have resolved.
    for (auto &[Nm, PH] : Pending)
      if (PH->hasUses())
        return fail2("use of undefined value '%" + Nm + "'");
    Pending.clear();
    // Every referenced block must exist with a body.
    for (auto &[Nm, BB] : BlockMap)
      if (!Defined.count(BB))
        return fail2("reference to undefined label '%" + Nm + "'");
    if (F->empty())
      return fail2("function body is empty");
    // Restore textual order (forward references create blocks early).
    F->reorderBlocks(DefOrder);

    Mod->addFunction(std::move(FOwner));
    F = nullptr;
    return true;
  }

  /// Lookahead: is the current token a block label (followed by ':')?
  bool isLabelAhead() {
    // The lexer has one-token lookahead only; a label token is only ever a
    // Word/Int at statement start, and the only other statements starting
    // with a Word are instruction keywords. Disambiguate by keyword set.
    const Token &T = Lex.peek();
    if (T.Kind == Tok::Int)
      return true; // numeric statement start can only be a label
    static const std::set<std::string> Keywords = {
        "add",  "sub",  "mul",   "udiv",  "sdiv",   "urem",  "srem",
        "shl",  "lshr", "ashr",  "and",   "or",     "xor",   "icmp",
        "select", "zext", "sext", "trunc", "alloca", "load",  "store",
        "getelementptr", "phi", "br",     "ret",    "call",  "bitcast",
        "tail", "freeze"};
    return !Keywords.count(T.Text);
  }

  bool startBlock(const std::string &Name) {
    BasicBlock *BB = getBlock(Name);
    if (Defined.count(BB))
      return fail2("redefinition of label '" + Name + "'");
    Defined.insert(BB);
    DefOrder.push_back(BB);
    CurBB = BB;
    return true;
  }

  BasicBlock *getBlock(const std::string &Name) {
    auto It = BlockMap.find(Name);
    if (It != BlockMap.end())
      return It->second;
    BasicBlock *BB = F->createBlock(Name);
    BlockMap[Name] = BB;
    return BB;
  }

  /// Define a value name; resolves pending forward references.
  bool defineValue(const std::string &Name, Value *V) {
    if (Values.count(Name))
      return fail2("redefinition of value '%" + Name + "'");
    Values[Name] = V;
    auto It = Pending.find(Name);
    if (It != Pending.end()) {
      Placeholder *PH = It->second.get();
      if (PH->getType() != V->getType())
        return fail2("type mismatch for forward-referenced value '%" + Name +
                     "'");
      PH->replaceAllUsesWith(V);
      Pending.erase(It);
    }
    return true;
  }

  /// Parse an operand of the given expected type.
  Value *parseOperand(Type *Ty) {
    skipAttrTokens();
    const Token &T = Lex.peek();
    if (T.Kind == Tok::LocalId) {
      std::string Name = Lex.take().Text;
      auto It = Values.find(Name);
      if (It != Values.end()) {
        if (It->second->getType() != Ty) {
          fail2("operand '%" + Name + "' has type " +
                It->second->getType()->getName() + ", expected " +
                Ty->getName());
          return nullptr;
        }
        return It->second;
      }
      auto PIt = Pending.find(Name);
      if (PIt != Pending.end()) {
        if (PIt->second->getType() != Ty) {
          fail2("conflicting types for forward reference '%" + Name + "'");
          return nullptr;
        }
        return PIt->second.get();
      }
      auto PH = std::make_unique<Placeholder>(Ty);
      Value *Out = PH.get();
      Pending[Name] = std::move(PH);
      return Out;
    }
    if (T.Kind == Tok::Int) {
      if (!Ty->isInteger()) {
        fail2("integer literal where " + Ty->getName() + " expected");
        return nullptr;
      }
      Token IntT = Lex.take();
      return F->getConstant(Ty, APInt64::fromSigned(Ty->getBitWidth(),
                                                    IntT.IntVal));
    }
    if (T.Kind == Tok::Word && (T.Text == "true" || T.Text == "false")) {
      if (!Ty->isBool()) {
        fail2("boolean literal where " + Ty->getName() + " expected");
        return nullptr;
      }
      bool B = Lex.take().Text == "true";
      return F->getBool(B);
    }
    if (T.Kind == Tok::Word && (T.Text == "undef" || T.Text == "poison" ||
                                T.Text == "null")) {
      fail2("unsupported value '" + T.Text + "' in this dialect");
      return nullptr;
    }
    fail2("expected operand, found '" + describe(T) + "'");
    return nullptr;
  }

  Instruction *emit(std::unique_ptr<Instruction> I) {
    return CurBB->push_back(std::move(I));
  }

  /// Parse poison flags for binary ops.
  void parseFlags(bool &NUW, bool &NSW, bool &Exact) {
    while (Lex.peek().Kind == Tok::Word) {
      const std::string &W = Lex.peek().Text;
      if (W == "nuw")
        NUW = true;
      else if (W == "nsw")
        NSW = true;
      else if (W == "exact")
        Exact = true;
      else
        break;
      Lex.take();
    }
  }

  /// Consume optional ", align N" suffixes.
  bool parseAlignTail() {
    while (Lex.peek().Kind == Tok::Comma) {
      Lex.take();
      if (Lex.peek().Kind == Tok::Word && Lex.peek().Text == "align") {
        Lex.take();
        if (Lex.peek().Kind != Tok::Int)
          return fail2("expected alignment value");
        Lex.take();
        continue;
      }
      return fail2("unsupported instruction suffix after ','");
    }
    return true;
  }

  bool parseInstruction() {
    std::string ResultName;
    bool HasResult = false;
    if (Lex.peek().Kind == Tok::LocalId) {
      ResultName = Lex.take().Text;
      HasResult = true;
      if (!expect(Tok::Equals, "'='"))
        return false;
    }

    skipAttrTokens(); // e.g. "tail" before call
    if (Lex.peek().Kind != Tok::Word)
      return fail2("expected instruction keyword, found '" +
                   describe(Lex.peek()) + "'");
    std::string Op = Lex.take().Text;

    auto finish = [&](Instruction *I) -> bool {
      if (HasResult) {
        if (I->getType()->isVoid())
          return fail2("cannot assign name to void instruction");
        I->setName(ResultName);
        return defineValue(ResultName, I);
      }
      if (!I->getType()->isVoid())
        return fail2("non-void instruction result must be named");
      return true;
    };

    // Binary operators.
    static const std::map<std::string, Opcode> BinOps = {
        {"add", Opcode::Add},   {"sub", Opcode::Sub},   {"mul", Opcode::Mul},
        {"udiv", Opcode::UDiv}, {"sdiv", Opcode::SDiv}, {"urem", Opcode::URem},
        {"srem", Opcode::SRem}, {"shl", Opcode::Shl},   {"lshr", Opcode::LShr},
        {"ashr", Opcode::AShr}, {"and", Opcode::And},   {"or", Opcode::Or},
        {"xor", Opcode::Xor}};
    auto BinIt = BinOps.find(Op);
    if (BinIt != BinOps.end()) {
      bool NUW = false, NSW = false, Exact = false;
      parseFlags(NUW, NSW, Exact);
      Type *Ty = parseType();
      if (!Ty)
        return false;
      if (!Ty->isInteger())
        return fail2("binary operator requires an integer type");
      Value *LHS = parseOperand(Ty);
      if (!LHS)
        return false;
      if (!expect(Tok::Comma, "','"))
        return false;
      Value *RHS = parseOperand(Ty);
      if (!RHS)
        return false;
      auto I = std::make_unique<BinaryInst>(BinIt->second, LHS, RHS);
      I->setNUW(NUW);
      I->setNSW(NSW);
      I->setExact(Exact);
      return finish(emit(std::move(I)));
    }

    if (Op == "icmp") {
      static const std::map<std::string, ICmpPred> Preds = {
          {"eq", ICmpPred::EQ},   {"ne", ICmpPred::NE},
          {"ugt", ICmpPred::UGT}, {"uge", ICmpPred::UGE},
          {"ult", ICmpPred::ULT}, {"ule", ICmpPred::ULE},
          {"sgt", ICmpPred::SGT}, {"sge", ICmpPred::SGE},
          {"slt", ICmpPred::SLT}, {"sle", ICmpPred::SLE}};
      if (Lex.peek().Kind != Tok::Word || !Preds.count(Lex.peek().Text))
        return fail2("expected icmp predicate");
      ICmpPred P = Preds.at(Lex.take().Text);
      Type *Ty = parseType();
      if (!Ty)
        return false;
      if (!Ty->isInteger())
        return fail2("icmp requires an integer type");
      Value *LHS = parseOperand(Ty);
      if (!LHS)
        return false;
      if (!expect(Tok::Comma, "','"))
        return false;
      Value *RHS = parseOperand(Ty);
      if (!RHS)
        return false;
      return finish(emit(std::make_unique<ICmpInst>(P, LHS, RHS)));
    }

    if (Op == "select") {
      Type *CTy = parseType();
      if (!CTy)
        return false;
      if (!CTy->isBool())
        return fail2("select condition must be i1");
      Value *Cond = parseOperand(CTy);
      if (!Cond)
        return false;
      if (!expect(Tok::Comma, "','"))
        return false;
      Type *Ty = parseType();
      if (!Ty)
        return false;
      if (!Ty->isInteger())
        return fail2("select arms must be integers");
      Value *TV = parseOperand(Ty);
      if (!TV)
        return false;
      if (!expect(Tok::Comma, "','"))
        return false;
      Type *Ty2 = parseType();
      if (!Ty2)
        return false;
      if (Ty2 != Ty)
        return fail2("select arm types differ");
      Value *FV = parseOperand(Ty);
      if (!FV)
        return false;
      return finish(emit(std::make_unique<SelectInst>(Cond, TV, FV)));
    }

    if (Op == "zext" || Op == "sext" || Op == "trunc" || Op == "bitcast" ||
        Op == "freeze") {
      if (Op == "freeze") {
        // freeze T %v — treated as the identity (no undef in this dialect).
        Type *Ty = parseType();
        if (!Ty)
          return false;
        Value *V = parseOperand(Ty);
        if (!V)
          return false;
        if (!HasResult)
          return fail2("freeze result must be named");
        return defineValue(ResultName, V);
      }
      Type *SrcTy = parseType();
      if (!SrcTy)
        return false;
      Value *Src = parseOperand(SrcTy);
      if (!Src)
        return false;
      if (Lex.peek().Kind != Tok::Word || Lex.peek().Text != "to")
        return fail2("expected 'to' in cast");
      Lex.take();
      Type *DstTy = parseType();
      if (!DstTy)
        return false;
      if (Op == "bitcast") {
        // Pointer-to-pointer bitcasts fold to the operand.
        if (!SrcTy->isPointer() || !DstTy->isPointer())
          return fail2("only pointer bitcasts are supported");
        if (!HasResult)
          return fail2("bitcast result must be named");
        return defineValue(ResultName, Src);
      }
      if (!SrcTy->isInteger() || !DstTy->isInteger())
        return fail2("casts are integer-only");
      unsigned SW = SrcTy->getBitWidth(), DW = DstTy->getBitWidth();
      Opcode CO = Op == "zext"   ? Opcode::ZExt
                  : Op == "sext" ? Opcode::SExt
                                 : Opcode::Trunc;
      if (CO == Opcode::Trunc ? DW >= SW : DW <= SW)
        return fail2("invalid cast width for '" + Op + "'");
      return finish(emit(std::make_unique<CastInst>(CO, Src, DstTy)));
    }

    if (Op == "alloca") {
      std::string StructName;
      Type *Ty = parseType(&StructName);
      if (!Ty)
        return false;
      if (!parseAlignTail())
        return false;
      std::unique_ptr<AllocaInst> I;
      if (!StructName.empty()) {
        // Allocate a struct: model as an i64-rounded byte blob via the
        // largest integer covering it; we only need the byte size.
        unsigned Sz = Structs[StructName].Size;
        Type *Blob = Sz <= 1   ? Type::getInt8()
                     : Sz <= 2 ? Type::getInt16()
                     : Sz <= 4 ? Type::getInt32()
                               : Type::getInt64();
        if (Sz > 8)
          return fail2("struct allocas larger than 8 bytes are unsupported");
        I = std::make_unique<AllocaInst>(Blob);
      } else {
        if (!Ty->isInteger())
          return fail2("alloca of unsupported type");
        I = std::make_unique<AllocaInst>(Ty);
      }
      return finish(emit(std::move(I)));
    }

    if (Op == "load") {
      Type *Ty = parseType();
      if (!Ty)
        return false;
      if (!Ty->isInteger())
        return fail2("only integer loads are supported");
      if (!expect(Tok::Comma, "','"))
        return false;
      Type *PTy = parseType();
      if (!PTy)
        return false;
      if (!PTy->isPointer())
        return fail2("load pointer operand must be a pointer");
      Value *Ptr = parseOperand(Type::getPtr());
      if (!Ptr)
        return false;
      if (!parseAlignTail())
        return false;
      return finish(emit(std::make_unique<LoadInst>(Ty, Ptr)));
    }

    if (Op == "store") {
      Type *Ty = parseType();
      if (!Ty)
        return false;
      if (!Ty->isInteger())
        return fail2("only integer stores are supported");
      Value *V = parseOperand(Ty);
      if (!V)
        return false;
      if (!expect(Tok::Comma, "','"))
        return false;
      Type *PTy = parseType();
      if (!PTy)
        return false;
      if (!PTy->isPointer())
        return fail2("store pointer operand must be a pointer");
      Value *Ptr = parseOperand(Type::getPtr());
      if (!Ptr)
        return false;
      if (!parseAlignTail())
        return false;
      emit(std::make_unique<StoreInst>(V, Ptr));
      if (HasResult)
        return fail2("store does not produce a result");
      return true;
    }

    if (Op == "getelementptr")
      return parseGEP(HasResult, ResultName);

    if (Op == "phi") {
      Type *Ty = parseType();
      if (!Ty)
        return false;
      if (!Ty->isInteger() && !Ty->isPointer())
        return fail2("phi of unsupported type");
      auto Phi = std::make_unique<PhiInst>(Ty);
      PhiInst *P = Phi.get();
      // Phis must precede non-phi instructions.
      if (CurBB->getFirstNonPhi())
        return fail2("phi after non-phi instruction in block");
      emit(std::move(Phi));
      while (true) {
        if (!expect(Tok::LBracket, "'['"))
          return false;
        Value *V = parseOperand(Ty);
        if (!V)
          return false;
        if (!expect(Tok::Comma, "','"))
          return false;
        if (Lex.peek().Kind != Tok::LocalId)
          return fail2("expected incoming block label in phi");
        BasicBlock *BB = getBlock(Lex.take().Text);
        if (!expect(Tok::RBracket, "']'"))
          return false;
        P->addIncoming(V, BB);
        if (Lex.peek().Kind != Tok::Comma)
          break;
        Lex.take();
      }
      if (!HasResult)
        return fail2("phi result must be named");
      P->setName(ResultName);
      return defineValue(ResultName, P);
    }

    if (Op == "br") {
      if (Lex.peek().Kind == Tok::Word && Lex.peek().Text == "label") {
        Lex.take();
        if (Lex.peek().Kind != Tok::LocalId)
          return fail2("expected branch target label");
        BasicBlock *Dest = getBlock(Lex.take().Text);
        emit(std::make_unique<BrInst>(Dest));
        CurBB = nullptr; // terminated; next statement must open a block
        return true;
      }
      Type *CTy = parseType();
      if (!CTy)
        return false;
      if (!CTy->isBool())
        return fail2("branch condition must be i1");
      Value *Cond = parseOperand(CTy);
      if (!Cond)
        return false;
      if (!expect(Tok::Comma, "','"))
        return false;
      if (Lex.peek().Kind != Tok::Word || Lex.peek().Text != "label")
        return fail2("expected 'label' in conditional branch");
      Lex.take();
      if (Lex.peek().Kind != Tok::LocalId)
        return fail2("expected true branch target");
      BasicBlock *T = getBlock(Lex.take().Text);
      if (!expect(Tok::Comma, "','"))
        return false;
      if (Lex.peek().Kind != Tok::Word || Lex.peek().Text != "label")
        return fail2("expected 'label' in conditional branch");
      Lex.take();
      if (Lex.peek().Kind != Tok::LocalId)
        return fail2("expected false branch target");
      BasicBlock *FB = getBlock(Lex.take().Text);
      emit(std::make_unique<BrInst>(Cond, T, FB));
      CurBB = nullptr;
      return true;
    }

    if (Op == "ret") {
      if (Lex.peek().Kind == Tok::Word && Lex.peek().Text == "void") {
        Lex.take();
        if (!F->getReturnType()->isVoid())
          return fail2("ret void in non-void function");
        emit(std::make_unique<RetInst>());
        CurBB = nullptr;
        return true;
      }
      Type *Ty = parseType();
      if (!Ty)
        return false;
      if (Ty != F->getReturnType())
        return fail2("ret type does not match function return type");
      Value *V = parseOperand(Ty);
      if (!V)
        return false;
      emit(std::make_unique<RetInst>(V));
      CurBB = nullptr;
      return true;
    }

    if (Op == "call") {
      Type *RetTy = parseType();
      if (!RetTy)
        return false;
      if (Lex.peek().Kind != Tok::GlobalId)
        return fail2("expected callee name");
      std::string Callee = Lex.take().Text;
      if (!expect(Tok::LParen, "'('"))
        return false;
      std::vector<Value *> Args;
      std::vector<Type *> ArgTys;
      if (Lex.peek().Kind != Tok::RParen) {
        while (true) {
          Type *ATy = parseType();
          if (!ATy)
            return false;
          skipAttrTokens();
          Value *A = parseOperand(ATy);
          if (!A)
            return false;
          Args.push_back(A);
          ArgTys.push_back(ATy);
          if (Lex.peek().Kind != Tok::Comma)
            break;
          Lex.take();
        }
      }
      if (!expect(Tok::RParen, "')'"))
        return false;
      skipAttrTokens();
      Function *CF = Mod->getFunction(Callee);
      if (!CF) {
        // Auto-declare externals referenced by paper snippets.
        CF = Mod->addFunction(
            std::make_unique<Function>(Callee, RetTy, ArgTys, true));
      } else {
        if (CF->getReturnType() != RetTy)
          return fail2("call return type mismatch for '@" + Callee + "'");
        if (CF->getNumParams() != Args.size())
          return fail2("call argument count mismatch for '@" + Callee + "'");
        for (unsigned I = 0; I < Args.size(); ++I)
          if (CF->getParamType(I) != ArgTys[I])
            return fail2("call argument type mismatch for '@" + Callee + "'");
      }
      Instruction *I = emit(std::make_unique<CallInst>(CF, RetTy, Args));
      if (RetTy->isVoid()) {
        if (HasResult)
          return fail2("cannot name the result of a void call");
        return true;
      }
      if (!HasResult)
        return true; // ignoring a call result is legal
      return finish(I);
    }

    return fail2("unknown instruction '" + Op + "'");
  }

  bool parseGEP(bool HasResult, const std::string &ResultName) {
    if (Lex.peek().Kind == Tok::Word && Lex.peek().Text == "inbounds")
      Lex.take();
    std::string StructName;
    Type *ElemTy = parseType(&StructName);
    if (!ElemTy)
      return false;
    if (!expect(Tok::Comma, "','"))
      return false;
    Type *PTy = parseType();
    if (!PTy)
      return false;
    if (!PTy->isPointer())
      return fail2("gep base must be a pointer");
    Value *Base = parseOperand(Type::getPtr());
    if (!Base)
      return false;

    // First index scales by the element size.
    if (!expect(Tok::Comma, "','"))
      return false;
    Type *IdxTy = parseType();
    if (!IdxTy)
      return false;
    if (!IdxTy->isInteger())
      return fail2("gep index must be an integer");
    Value *Idx0 = parseOperand(IdxTy);
    if (!Idx0)
      return false;

    unsigned ElemSize;
    const StructLayout *SL = nullptr;
    if (!StructName.empty()) {
      SL = &Structs[StructName];
      ElemSize = SL->Size;
    } else if (ElemTy->isInteger()) {
      ElemSize = ElemTy->getStoreSize();
    } else if (ElemTy->isPointer()) {
      ElemSize = 8;
    } else {
      return fail2("unsupported gep element type");
    }

    // Compute base byte offset term: Idx0 * ElemSize (constant-fold when
    // possible; widen the index to i64 first).
    int64_t ConstOffset = 0;
    Value *DynOffset = nullptr;
    if (auto *CI = dyn_cast<ConstantInt>(Idx0)) {
      ConstOffset = CI->getValue().sext() * static_cast<int64_t>(ElemSize);
    } else {
      Value *Wide = Idx0;
      if (IdxTy->getBitWidth() < 64)
        Wide = emit(std::make_unique<CastInst>(Opcode::SExt, Idx0,
                                               Type::getInt64()));
      DynOffset = emit(std::make_unique<BinaryInst>(
          Opcode::Mul, Wide,
          F->getConstant(64, static_cast<uint64_t>(ElemSize))));
    }

    // Optional struct field index.
    if (Lex.peek().Kind == Tok::Comma) {
      Lex.take();
      Type *FTy = parseType();
      if (!FTy)
        return false;
      Value *FieldIdx = parseOperand(FTy);
      if (!FieldIdx)
        return false;
      auto *CI = dyn_cast<ConstantInt>(FieldIdx);
      if (!SL)
        return fail2("second gep index requires a struct element type");
      if (!CI)
        return fail2("struct field index must be a constant");
      uint64_t FI = CI->getValue().zext();
      if (FI >= SL->Offsets.size())
        return fail2("struct field index out of range");
      ConstOffset += static_cast<int64_t>(SL->Offsets[FI]);
      if (Lex.peek().Kind == Tok::Comma)
        return fail2("gep with more than two indices is unsupported");
    }

    Value *Offset;
    if (DynOffset && ConstOffset != 0)
      Offset = emit(std::make_unique<BinaryInst>(
          Opcode::Add, DynOffset,
          F->getConstant(64, static_cast<uint64_t>(ConstOffset))));
    else if (DynOffset)
      Offset = DynOffset;
    else
      Offset = F->getConstant(64, static_cast<uint64_t>(ConstOffset));

    Instruction *G = emit(std::make_unique<GEPInst>(Base, Offset));
    if (!HasResult)
      return fail2("gep result must be named");
    G->setName(ResultName);
    return defineValue(ResultName, G);
  }

  Lexer Lex;
  Module *Mod = nullptr;
  Function *F = nullptr;
  BasicBlock *CurBB = nullptr;
  std::unordered_map<std::string, Value *> Values;
  std::unordered_map<std::string, std::unique_ptr<Placeholder>> Pending;
  std::unordered_map<std::string, BasicBlock *> BlockMap;
  std::set<BasicBlock *> Defined;
  std::vector<BasicBlock *> DefOrder;
  std::unordered_map<std::string, StructLayout> Structs;

  std::string ErrMsg;
  unsigned ErrLine = 0;
};

} // namespace

ErrorOr<std::unique_ptr<Module>> parseModule(const std::string &Text) {
  Parser P(Text);
  return P.run();
}

ErrorOr<std::unique_ptr<Module>>
parseModuleExpectingFunction(const std::string &Text) {
  auto M = parseModule(Text);
  if (!M)
    return M;
  if (!M.value()->getMainFunction())
    return ErrorOr<std::unique_ptr<Module>>(
        Error{"module contains no function definition", 0});
  return M;
}

} // namespace veriopt
