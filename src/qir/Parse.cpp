//===- qir/Parse.cpp - QIR textual parser ---------------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "qir/Parse.h"
#include "qir/Verify.h"
#include <cstdlib>
#include <map>
#include <vector>

using namespace qcf;
using namespace qcf::qir;

namespace {

constexpr uint32_t NO_ID = 0xffffffffu;

/// One parsed instruction before renumbering. Value/block operands hold
/// the *printed* ids; the builder pass remaps them.
struct PInst {
  Opcode Op = Opcode::Unreachable;
  Type Ty = Type::Void;
  uint8_t Flags = 0;
  uint32_t PrintedId = NO_ID; ///< `%N =` prefix, if present.
  uint32_t A = NO_ID, B = NO_ID, C = NO_ID;
  uint64_t Imm = 0;
  Int128 I128V = 0;
  std::string Callee;
  std::vector<uint32_t> Args;                      ///< Printed value ids.
  std::vector<std::pair<uint32_t, uint32_t>> Phis; ///< (block, value).
};

struct PBlock {
  uint32_t PrintedId = NO_ID;
  uint32_t Begin = 0, End = 0; ///< Range in the PInst vector.
};

struct PFunction {
  std::string Name;
  Type RetType = Type::Void;
  std::vector<Type> Params;
  std::vector<PInst> Insts;
  std::vector<PBlock> Blocks;
};

class Parser {
public:
  Parser(std::string_view Text, std::string *Error)
      : Cur(Text.data()), End(Text.data() + Text.size()), Error(Error) {}

  bool parse(std::vector<PFunction> *Out) {
    skipBlank();
    while (Cur != End) {
      PFunction F;
      if (!parseFunction(&F))
        return false;
      Out->push_back(std::move(F));
      skipBlank();
    }
    return true;
  }

private:
  const char *Cur;
  const char *End;
  std::string *Error;
  unsigned Line = 1;

  bool fail(const std::string &Msg) {
    if (Error)
      *Error = "line " + std::to_string(Line) + ": " + Msg;
    return false;
  }

  // --- Lexing helpers ----------------------------------------------------

  void skipSpace() {
    while (Cur != End && (*Cur == ' ' || *Cur == '\t'))
      ++Cur;
    if (Cur != End && *Cur == ';') // Comment to end of line.
      while (Cur != End && *Cur != '\n')
        ++Cur;
  }

  /// Skips whitespace including newlines (between top-level constructs).
  void skipBlank() {
    for (;;) {
      skipSpace();
      if (Cur != End && *Cur == '\n') {
        ++Cur;
        ++Line;
        continue;
      }
      return;
    }
  }

  bool eatNewline() {
    skipSpace();
    if (Cur == End)
      return true;
    if (*Cur != '\n')
      return fail("expected end of line");
    ++Cur;
    ++Line;
    return true;
  }

  bool eat(char C) {
    skipSpace();
    if (Cur == End || *Cur != C)
      return fail(std::string("expected '") + C + "'");
    ++Cur;
    return true;
  }

  bool peekIs(char C) {
    skipSpace();
    return Cur != End && *Cur == C;
  }

  static bool isIdentChar(char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
           (C >= '0' && C <= '9') || C == '_' || C == '.';
  }

  std::string ident() {
    skipSpace();
    std::string S;
    while (Cur != End && isIdentChar(*Cur))
      S += *Cur++;
    return S;
  }

  bool number(int64_t *Out) {
    skipSpace();
    const char *Start = Cur;
    char *After = nullptr;
    long long V = std::strtoll(Start, &After, 0);
    if (After == Start)
      return fail("expected number");
    Cur = After;
    *Out = V;
    return true;
  }

  bool hexU64(uint64_t *Out) {
    skipSpace();
    const char *Start = Cur;
    char *After = nullptr;
    unsigned long long V = std::strtoull(Start, &After, 16);
    if (After == Start)
      return fail("expected hex number");
    Cur = After;
    *Out = V;
    return true;
  }

  /// `%<n>`
  bool valueRef(uint32_t *Out) {
    if (!eat('%'))
      return false;
    int64_t N;
    if (!number(&N) || N < 0)
      return fail("bad value id");
    *Out = static_cast<uint32_t>(N);
    return true;
  }

  /// `b<n>`
  bool blockRef(uint32_t *Out) {
    skipSpace();
    if (Cur == End || *Cur != 'b')
      return fail("expected block label");
    ++Cur;
    int64_t N;
    if (!number(&N) || N < 0)
      return fail("bad block id");
    *Out = static_cast<uint32_t>(N);
    return true;
  }

  bool typeToken(Type *Out) {
    std::string S = ident();
    for (Type T : {Type::Void, Type::I1, Type::I8, Type::I16, Type::I32,
                   Type::I64, Type::I128, Type::F64, Type::Ptr,
                   Type::D128})
      if (S == typeName(T)) {
        *Out = T;
        return true;
      }
    return fail("unknown type '" + S + "'");
  }

  // --- Grammar -----------------------------------------------------------

  bool parseFunction(PFunction *F) {
    if (ident() != "define")
      return fail("expected 'define'");
    if (!typeToken(&F->RetType))
      return false;
    if (!eat('@'))
      return false;
    F->Name = ident();
    if (F->Name.empty())
      return fail("expected function name");
    if (!eat('('))
      return false;
    if (!peekIs(')')) {
      for (;;) {
        Type T;
        if (!typeToken(&T))
          return false;
        F->Params.push_back(T);
        if (peekIs(','))
          eat(',');
        else
          break;
      }
    }
    if (!eat(')') || !eat('{') || !eatNewline())
      return false;

    // Blocks until '}'.
    skipBlank();
    while (!peekIs('}')) {
      PBlock B;
      if (!blockRef(&B.PrintedId) || !eat(':') || !eatNewline())
        return false;
      B.Begin = static_cast<uint32_t>(F->Insts.size());
      skipBlank();
      while (!peekIs('}') && !startsBlockLabel()) {
        PInst I;
        if (!parseInst(&I))
          return false;
        F->Insts.push_back(std::move(I));
        skipBlank();
      }
      B.End = static_cast<uint32_t>(F->Insts.size());
      F->Blocks.push_back(B);
    }
    if (!eat('}'))
      return false;
    return true;
  }

  /// True when the next token is `b<digits>:` (a block label).
  bool startsBlockLabel() {
    skipSpace();
    const char *P = Cur;
    if (P == End || *P != 'b')
      return false;
    ++P;
    if (P == End || *P < '0' || *P > '9')
      return false;
    while (P != End && *P >= '0' && *P <= '9')
      ++P;
    return P != End && *P == ':';
  }

  bool parseInst(PInst *I) {
    if (peekIs('%')) {
      if (!valueRef(&I->PrintedId) || !eat('='))
        return false;
    }
    std::string Mn = ident();
    if (Mn.empty())
      return fail("expected instruction mnemonic");

    if (Mn == "const")
      return parseConst(I);
    if (Mn == "param") {
      I->Op = Opcode::Param;
      if (!typeToken(&I->Ty) || !eat('#'))
        return false;
      int64_t N;
      if (!number(&N))
        return false;
      I->A = static_cast<uint32_t>(N);
      return eatNewline();
    }
    if (Mn == "stackslot") {
      I->Op = Opcode::StackSlot;
      I->Ty = Type::Ptr;
      int64_t N;
      if (!number(&N))
        return false;
      I->Imm = static_cast<uint64_t>(N);
      return eatNewline();
    }
    if (Mn == "icmp" || Mn == "fcmp") {
      I->Op = Mn == "icmp" ? Opcode::ICmp : Opcode::FCmp;
      I->Ty = Type::I1;
      if (!predToken(&I->Flags))
        return false;
      Type OperandTy; // Informational; the operands carry their types.
      if (!typeToken(&OperandTy))
        return false;
      return valueRef(&I->A) && eat(',') && valueRef(&I->B) && eatNewline();
    }
    if (Mn == "select") {
      I->Op = Opcode::Select; // Ty resolved from operand B later.
      return valueRef(&I->A) && eat(',') && valueRef(&I->B) && eat(',') &&
             valueRef(&I->C) && eatNewline();
    }
    if (Mn == "load") {
      I->Op = Opcode::Load;
      return typeToken(&I->Ty) && eat(',') && valueRef(&I->A) &&
             eatNewline();
    }
    if (Mn == "store") {
      I->Op = Opcode::Store;
      return typeToken(&I->Ty) && valueRef(&I->B) && eat(',') &&
             valueRef(&I->A) && eatNewline();
    }
    if (Mn == "gep")
      return parseGep(I);
    if (Mn == "atomicadd") {
      I->Op = Opcode::AtomicAdd;
      return typeToken(&I->Ty) && valueRef(&I->A) && eat(',') &&
             valueRef(&I->B) && eatNewline();
    }
    if (Mn == "call")
      return parseCall(I);
    if (Mn == "phi")
      return parsePhi(I);
    if (Mn == "br") {
      I->Op = Opcode::Br;
      return blockRef(&I->A) && eatNewline();
    }
    if (Mn == "condbr") {
      I->Op = Opcode::CondBr;
      return valueRef(&I->A) && eat(',') && blockRef(&I->B) && eat(',') &&
             blockRef(&I->C) && eatNewline();
    }
    if (Mn == "ret") {
      I->Op = Opcode::Ret;
      skipSpace();
      if (Cur != End && *Cur == '%')
        return valueRef(&I->A) && eatNewline();
      I->A = NO_ID;
      return eatNewline();
    }
    if (Mn == "unreachable") {
      I->Op = Opcode::Unreachable;
      return eatNewline();
    }

    // Generic unary/binary forms: `<mnemonic> <ty> %a[, %b]`.
    if (!opcodeFromMnemonic(Mn, &I->Op))
      return fail("unknown mnemonic '" + Mn + "'");
    if (!typeToken(&I->Ty))
      return false;
    unsigned N = numValueOperands(I->Op);
    if (N >= 1 && !valueRef(&I->A))
      return false;
    if (N >= 2 && (!eat(',') || !valueRef(&I->B)))
      return false;
    if (N >= 3 && (!eat(',') || !valueRef(&I->C)))
      return false;
    return eatNewline();
  }

  bool parseConst(PInst *I) {
    Type Ty;
    if (!typeToken(&Ty))
      return false;
    switch (Ty) {
    case Type::I128: {
      I->Op = Opcode::ConstI128;
      I->Ty = Type::I128;
      skipSpace();
      if (Cur + 2 > End || Cur[0] != '0' || Cur[1] != 'x')
        return fail("expected 0x i128 literal");
      Cur += 2;
      std::string Hex;
      while (Cur != End && std::isxdigit(static_cast<unsigned char>(*Cur)))
        Hex += *Cur++;
      if (Hex.empty() || Hex.size() > 32)
        return fail("bad i128 literal");
      Hex.insert(0, 32 - Hex.size(), '0');
      uint64_t Hi = std::strtoull(Hex.substr(0, 16).c_str(), nullptr, 16);
      uint64_t Lo = std::strtoull(Hex.substr(16).c_str(), nullptr, 16);
      I->I128V = (static_cast<Int128>(static_cast<int64_t>(Hi)) << 64) |
                 static_cast<Int128>(Lo);
      return eatNewline();
    }
    case Type::F64: {
      I->Op = Opcode::ConstF64;
      I->Ty = Type::F64;
      skipSpace();
      if (Cur + 2 > End || Cur[0] != '0' || Cur[1] != 'x')
        return fail("expected 0x f64 bit pattern");
      Cur += 2;
      return hexU64(&I->Imm) && eatNewline();
    }
    case Type::Ptr: {
      I->Op = Opcode::ConstPtr;
      I->Ty = Type::Ptr;
      skipSpace();
      if (Cur + 2 > End || Cur[0] != '0' || Cur[1] != 'x')
        return fail("expected 0x pointer literal");
      Cur += 2;
      return hexU64(&I->Imm) && eatNewline();
    }
    default: {
      I->Op = Opcode::ConstInt;
      I->Ty = Ty;
      int64_t V;
      if (!number(&V))
        return false;
      I->Imm = static_cast<uint64_t>(V);
      return eatNewline();
    }
    }
  }

  bool parseGep(PInst *I) {
    I->Op = Opcode::Gep;
    I->Ty = Type::Ptr;
    if (!valueRef(&I->A) || !eat(','))
      return false;
    skipSpace();
    if (Cur != End && *Cur == '%') {
      // `gep %a, %b * <scale> + <offset>`
      int64_t Scale, Offset;
      if (!valueRef(&I->B) || !eat('*') || !number(&Scale) || !eat('+') ||
          !number(&Offset))
        return false;
      I->C = static_cast<uint32_t>(Scale);
      I->Imm = static_cast<uint64_t>(Offset);
    } else {
      int64_t Offset;
      if (!number(&Offset))
        return false;
      I->B = NO_ID;
      I->Imm = static_cast<uint64_t>(Offset);
    }
    return eatNewline();
  }

  bool parseCall(PInst *I) {
    I->Op = Opcode::Call;
    if (!typeToken(&I->Ty) || !eat('@'))
      return false;
    I->Callee = ident();
    if (I->Callee.empty())
      return fail("expected callee name");
    if (!eat('('))
      return false;
    if (!peekIs(')')) {
      for (;;) {
        uint32_t V = 0;
        if (!valueRef(&V))
          return false;
        I->Args.push_back(V);
        if (peekIs(','))
          eat(',');
        else
          break;
      }
    }
    return eat(')') && eatNewline();
  }

  bool parsePhi(PInst *I) {
    I->Op = Opcode::Phi;
    if (!typeToken(&I->Ty))
      return false;
    for (;;) {
      uint32_t Blk = 0, Val = 0;
      if (!eat('[') || !blockRef(&Blk) || !eat(':') || !valueRef(&Val) ||
          !eat(']'))
        return false;
      I->Phis.emplace_back(Blk, Val);
      if (peekIs(','))
        eat(',');
      else
        break;
    }
    return eatNewline();
  }

  bool predToken(uint8_t *Out) {
    std::string S = ident();
    for (CmpPred P :
         {CmpPred::Eq, CmpPred::Ne, CmpPred::SLt, CmpPred::SLe,
          CmpPred::SGt, CmpPred::SGe, CmpPred::ULt, CmpPred::ULe,
          CmpPred::UGt, CmpPred::UGe})
      if (S == cmpPredName(P)) {
        *Out = static_cast<uint8_t>(P);
        return true;
      }
    return fail("unknown predicate '" + S + "'");
  }

  static bool opcodeFromMnemonic(const std::string &Mn, Opcode *Out) {
    static const std::pair<const char *, Opcode> Table[] = {
#define X(NAME, STR, NOPS, KIND) {STR, Opcode::NAME},
        QIR_OPCODES(X)
#undef X
    };
    for (const auto &[Str, Op] : Table)
      if (Mn == Str) {
        *Out = Op;
        return true;
      }
    return false;
  }
};

/// Builds a qir::Function from the parsed form, renumbering values and
/// blocks into textual order.
bool buildFunction(Module &M, const PFunction &PF,
                   const SymbolResolver &Resolver, std::string *Error) {
  Function *F = M.createFunction(PF.Name, PF.Params, PF.RetType);

  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = "function '" + PF.Name + "': " + Msg;
    return false;
  };

  // Printed id → new id (position in textual order).
  std::map<uint32_t, uint32_t> ValMap;
  for (uint32_t K = 0; K != PF.Insts.size(); ++K)
    if (PF.Insts[K].PrintedId != NO_ID) {
      if (!ValMap.emplace(PF.Insts[K].PrintedId, K).second)
        return Fail("duplicate value %" +
                    std::to_string(PF.Insts[K].PrintedId));
    }
  std::map<uint32_t, uint32_t> BlockMap;
  for (uint32_t K = 0; K != PF.Blocks.size(); ++K)
    if (!BlockMap.emplace(PF.Blocks[K].PrintedId, K).second)
      return Fail("duplicate block b" +
                  std::to_string(PF.Blocks[K].PrintedId));

  auto MapVal = [&](uint32_t Printed, uint32_t *Out) {
    auto It = ValMap.find(Printed);
    if (It == ValMap.end())
      return Fail("undefined value %" + std::to_string(Printed));
    *Out = It->second;
    return true;
  };
  auto MapBlock = [&](uint32_t Printed, uint32_t *Out) {
    auto It = BlockMap.find(Printed);
    if (It == BlockMap.end())
      return Fail("undefined block b" + std::to_string(Printed));
    *Out = It->second;
    return true;
  };

  for (const PInst &P : PF.Insts) {
    Inst I{};
    I.Op = P.Op;
    I.Ty = P.Ty;
    I.Flags = P.Flags;
    I.Imm = P.Imm;

    switch (P.Op) {
    case Opcode::ConstInt:
    case Opcode::ConstF64:
    case Opcode::ConstPtr:
    case Opcode::StackSlot:
      break;
    case Opcode::Param:
      I.A = P.A; // Parameter index, not a value id.
      if (P.A >= PF.Params.size())
        return Fail("param index out of range");
      break;
    case Opcode::ConstI128:
      I.A = static_cast<uint32_t>(F->I128Pool.size());
      F->I128Pool.push_back(P.I128V);
      break;
    case Opcode::Gep:
      if (!MapVal(P.A, &I.A))
        return false;
      if (P.B != NO_ID) {
        if (!MapVal(P.B, &I.B))
          return false;
        I.C = P.C; // Scale, not a value id.
      } else {
        I.B = INVALID_VALUE;
      }
      break;
    case Opcode::Call: {
      I.A = static_cast<uint32_t>(F->CallArgs.size());
      I.B = static_cast<uint32_t>(P.Args.size());
      std::vector<Type> ParamTys;
      for (uint32_t Printed : P.Args) {
        uint32_t V;
        if (!MapVal(Printed, &V))
          return false;
        F->CallArgs.push_back(V);
        ParamTys.push_back(F->valueType(V));
      }
      void *Addr = Resolver ? Resolver(P.Callee) : nullptr;
      I.Imm = M.declareRuntime(P.Callee, P.Ty, std::move(ParamTys), Addr);
      break;
    }
    case Opcode::Phi:
      I.A = static_cast<uint32_t>(F->PhiIns.size());
      I.B = static_cast<uint32_t>(P.Phis.size());
      for (auto [Blk, Val] : P.Phis) {
        PhiIn In;
        if (!MapBlock(Blk, &In.Pred) || !MapVal(Val, &In.Val))
          return false;
        F->PhiIns.push_back(In);
      }
      break;
    case Opcode::Br:
      if (!MapBlock(P.A, &I.A))
        return false;
      break;
    case Opcode::CondBr:
      if (!MapVal(P.A, &I.A) || !MapBlock(P.B, &I.B) ||
          !MapBlock(P.C, &I.C))
        return false;
      break;
    case Opcode::Ret:
      if (P.A == NO_ID)
        I.A = INVALID_VALUE;
      else if (!MapVal(P.A, &I.A))
        return false;
      break;
    case Opcode::Select:
      if (!MapVal(P.A, &I.A) || !MapVal(P.B, &I.B) || !MapVal(P.C, &I.C))
        return false;
      I.Ty = F->valueType(I.B);
      break;
    default: {
      unsigned N = numValueOperands(P.Op);
      if (N >= 1 && !MapVal(P.A, &I.A))
        return false;
      if (N >= 2 && !MapVal(P.B, &I.B))
        return false;
      if (N >= 3 && !MapVal(P.C, &I.C))
        return false;
      break;
    }
    }
    F->Insts.push_back(I);
  }

  for (const PBlock &PB : PF.Blocks) {
    Block B;
    B.Begin = PB.Begin;
    B.End = PB.End;
    B.Started = true;
    F->Blocks.push_back(B);
  }
  return true;
}

} // namespace

std::unique_ptr<Module> qir::parseModule(std::string_view Text,
                                         std::string *Error,
                                         const SymbolResolver &Resolver) {
  std::vector<PFunction> Parsed;
  Parser P(Text, Error);
  if (!P.parse(&Parsed))
    return nullptr;

  auto M = std::make_unique<Module>();
  for (const PFunction &PF : Parsed)
    if (!buildFunction(*M, PF, Resolver, Error))
      return nullptr;
  return M;
}
