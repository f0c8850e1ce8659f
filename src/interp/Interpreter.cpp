//===- Interpreter.cpp - IR execution and profiling -------------------------===//
//
// Each run decodes the module into one flat op array (DESIGN.md §9a):
// operands become slots of a per-frame value array, symbols become global
// addresses or frame offsets, a MemRef becomes a base, a depth, an index
// slot and an offset, and block targets become op indices. One threaded
// executor, templated on the hook set, runs the array.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/AlatObserver.h"
#include "support/Error.h"
#include "support/PagedMemory.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <bit>
#include <map>
#include <tuple>

using namespace srp;
using namespace srp::ir;
using namespace srp::interp;

namespace {

// Op kinds. The first 23 mirror ir::Opcode, so an Assign decodes to the
// kind of its opcode, and every kind before Enter is one statement.
// LoadDirect/LoadChain and StoreDirect/StoreChain are the unflagged
// shapes; Load and Store take every other shape, and every access when
// an ALAT observer, MemTrace or TaintTrace is attached. Enter opens a
// block and Resume continues one after a call: both charge a stretch of
// fuel. FuelOut is a statement the fuel no longer covers.
#define SRP_INTERP_OPS(X)                                                      \
  X(Copy) X(Add) X(Sub) X(Mul) X(Div) X(Rem) X(And) X(Or) X(Xor) X(Shl)        \
  X(Shr) X(CmpEq) X(CmpNe) X(CmpLt) X(CmpLe) X(FAdd) X(FSub) X(FMul)          \
  X(FDiv) X(FCmpLt) X(IntToFp) X(FpToInt) X(Select) X(LoadDirect)           \
  X(LoadChain) X(Load) X(StoreDirect) X(StoreChain) X(Store) X(AddrOf)      \
  X(Alloc) X(Call) X(Invala) X(Print) X(Enter) X(Resume) X(Br) X(CondBr)    \
  X(Ret) X(FuelOut)
enum class OpKind : uint8_t {
#define SRP_KIND(K) K,
  SRP_INTERP_OPS(SRP_KIND)
#undef SRP_KIND
};
static_assert(int(OpKind::Select) == int(Opcode::Select));

/// One decoded op. Field use by kind:
///   assigns        Dst = A op B (Select: A ? B : C)
///   Load*, Store*  the address is V[C] + K (a global's address or a
///                  frame offset), Depth times dereferenced, plus V[B] * 8
///                  plus L (the *Direct kinds fold L into K); Aux is the
///                  first alias-profile slot. Loads write Dst, stores store
///                  A; Load's A is the @addr slot of an indirect ld.c and
///                  NoSlot otherwise. Bad: the base does not resolve in
///                  this function, so the op traps.
///   AddrOf         Dst = V[C] + K + V[B] * 8; Bad as above
///   Alloc          Dst = a new heap object of A elements
///   Call           Dst (NoSlot if none) = Funcs[Aux](ArgSlots[A, A + B))
///   Invala, Print  Dst, A; Print's Bad: the operand is a float
///   Enter, Resume  a stretch of A statements, B loads and C stores
///   Br, CondBr     targets B (taken) and C, condition A, block number
///                  Aux; a profiled run counts traversals in K and L
///   Ret            returns V[A]
/// S is the statement the op came from (the block's last one for a
/// terminator); the hooks read the rest of what they need from it.
struct Op {
  OpKind Kind = OpKind::Copy;
  uint8_t Depth = 0;
  bool Bad = false;
  uint32_t Dst = 0, A = 0, B = 0, C = 0, Aux = 0;
  uint64_t K = 0, L = 0;
  const Stmt *S = nullptr;
};

constexpr uint32_t NoSlot = ~0u;
constexpr unsigned MaxCallDepth = 512;

/// A function's frame. Value slots [0, NumTemps) are its temps, then come
/// the zero slot, the frame-pointer slot and the constants; Inits holds
/// their values on entry. Formals and then locals sit downward from the
/// caller's stack top, each rounded up to 64 bytes: Objs[FirstObj, +
/// NumObjs) in that order, at offsets from the frame's lowest address.
struct DecodedFunc {
  const Function *F = nullptr;
  uint32_t Entry = 0, FirstBlock = 0; ///< Entry's op index and number.
  uint32_t NumTemps = 0, NumSlots = 0, FirstInit = 0;
  uint32_t FirstObj = 0, NumObjs = 0, NumFormals = 0;
  uint64_t FrameBytes = 0;
};

struct FrameObj {
  uint64_t Off, Bytes;
  const Symbol *Sym;
};

/// A live object, for reverse address-to-symbol lookup.
struct Object {
  uint64_t Start, End;
  unsigned SymbolId;
};

/// One alias-profile site and level: the target recorded last and, off
/// the stack (globals and heap objects never die), the object it lies
/// in. An access inside that object has the same target, so the lookup
/// is skipped.
struct SiteCache {
  uint64_t Start = 0, Size = 0;
  unsigned Sym = ~0u - 1; ///< Neither a symbol id nor UnknownTarget.
};

/// What the executor is compiled to observe: nothing (the oracle run),
/// the alias and edge profiles (the train run), or every hook.
enum HookSet : unsigned { NoHooks, ProfileHooks, AllHooks };

/// One run: the decoded module and the machine state.
class Engine {
public:
  Engine(const Module &M, AliasProfile *AP, EdgeProfile *EP,
         AlatObserver *AO, MemTrace *MT, TaintTrace *TT, uint64_t Fuel)
      : M(M), AP(AP), EP(EP), AO(AO), MT(MT), TT(TT), FuelLeft(Fuel),
        KeepObjects(AP || MT) {}

  RunResult run();

private:
  void decode(bool Observed);
  void decodeFunction(unsigned FI, bool Observed);
  uint32_t slotOf(const Operand &Op);
  void decodeRef(Op &O, const MemRef &Ref, unsigned FI);
  /// The loads and stores a statement op performs, trapping or not.
  static unsigned loadsOf(const Op &O) {
    if (O.Kind >= OpKind::StoreDirect && O.Kind <= OpKind::Store)
      return O.Depth;
    if (O.Kind < OpKind::LoadDirect || O.Kind > OpKind::Load)
      return 0;
    return O.Kind == OpKind::Load && O.A != NoSlot ? 1 : O.Depth + 1;
  }
  static unsigned storesOf(const Op &O) {
    return O.Kind >= OpKind::StoreDirect && O.Kind <= OpKind::Store;
  }

  template <unsigned H>
  bool invoke(const DecodedFunc &DF, unsigned NArgs, uint64_t &Ret,
              Shadow &RetSh);
  template <unsigned H>
  bool exec(const DecodedFunc &DF, size_t Base, uint64_t &Ret,
            Shadow &RetSh);
  template <unsigned H>
  uint64_t walk(const Op &O, const uint64_t *V, const DecodedFunc &DF,
                uint64_t &ChainPtr, Shadow *WalkShadow);
  template <unsigned H>
  void load(const Op &O, uint64_t *V, Shadow *Sh, const DecodedFunc &DF);
  template <unsigned H>
  void store(const Op &O, uint64_t *V, Shadow *Sh, const DecodedFunc &DF);

  bool charge(Op *Head, bool Entry);
  void uncount(const Op *From);
  /// The statement at \p PC trapped: nothing after it in its stretch ran.
  bool trapped(const Op *PC) {
    uncount(PC + 1);
    return false;
  }
  // A trap records the first failure; the statement finishes with inert
  // values and the executor stops after it. There are no exceptions, and
  // fatalError would kill the tests that run trapping programs.
  void trap(std::string Message) {
    if (!Trapped) {
      Trapped = true;
      TrapMessage = std::move(Message);
    }
  }
  [[gnu::cold, gnu::noinline]] void trapUnaligned(const char *What,
                                                  uint64_t Addr) {
    trap(formatString("unaligned %s at 0x%llx", What,
                      static_cast<unsigned long long>(Addr)));
  }
  void trapBadBase(const Stmt &S) {
    const Symbol *Sym = S.Ref.Base;
    trap(Sym->Kind == SymbolKind::Global
             ? std::string("reference to unlaid-out global")
             : formatString("reference to foreign local '%s'",
                            Sym->Name.c_str()));
  }

  uint64_t read64(uint64_t Addr) {
    if (Addr % 8 != 0) [[unlikely]] {
      trapUnaligned("read", Addr);
      return 0;
    }
    return Memory.load(Addr >> 3);
  }
  void write64(uint64_t Addr, uint64_t Bits) {
    if (Addr % 8 != 0) [[unlikely]]
      trapUnaligned("write", Addr);
    else
      Memory.store(Addr >> 3, Bits);
  }

  uint64_t allocHeap(const Symbol &Sym, uint64_t Bytes);
  /// The live object holding \p Addr, or null; \p OnStack says whether
  /// it is a frame's.
  const Object *objectAt(uint64_t Addr, bool &OnStack) const;
  unsigned symbolAt(uint64_t Addr) const {
    bool OnStack;
    const Object *Obj = objectAt(Addr, OnStack);
    return Obj ? Obj->SymbolId : AliasProfile::UnknownTarget;
  }
  /// Level \p Level of the access \p O landed at \p Addr.
  void observe(const Op &O, unsigned Level, uint64_t Addr,
               const DecodedFunc &DF) {
    SiteCache &C = Sites[O.Aux + Level - 1];
    if (Addr - C.Start < C.Size) [[likely]]
      return;
    // The sites that walk one list node one after another share it.
    if (Addr - Found.Start < Found.Size && Found.Sym == C.Sym)
      C = Found;
    else
      lookUp(C, O, Level, Addr, DF);
  }
  [[gnu::noinline]] void lookUp(SiteCache &C, const Op &O, unsigned Level,
                                uint64_t Addr, const DecodedFunc &DF);
  void recordAccess(uint64_t Addr, bool IsLoad, bool Speculative) {
    if (MT)
      MT->Accesses.push_back(
          MemTrace::Access{Addr, symbolAt(Addr), IsLoad, Speculative});
  }

  // Taint mode (TT attached).
  Shadow memShadow(uint64_t Addr) const {
    auto It = MemTaint.find(Addr >> 3);
    return It == MemTaint.end() ? Shadow() : It->second;
  }
  static void setShadow(Shadow *Sh, const DecodedFunc &DF, unsigned Temp,
                        const Shadow &X) {
    if (Temp < DF.NumTemps)
      Sh[Temp] = X;
  }
  void recordLeak(const DecodedFunc &DF, TaintTrace::Sink Sink,
                  unsigned Line, const Shadow &Sh);
  void flushEdgeProfile();

  const Module &M;
  AliasProfile *AP;
  EdgeProfile *EP;
  AlatObserver *AO;
  MemTrace *MT;
  TaintTrace *TT;
  uint64_t FuelLeft;
  /// Whether the objects behind symbolAt are kept (only AP and MT ask).
  const bool KeepObjects;

  // The decoded module, and decode scratch.
  std::vector<Op> Ops;
  std::vector<DecodedFunc> Funcs;
  std::vector<uint64_t> Inits;
  std::vector<FrameObj> Objs;
  std::vector<uint32_t> ArgSlots;
  std::vector<const BasicBlock *> Blocks; ///< By module-wide number.
  std::vector<uint64_t> GlobalAddr, SlotOff; ///< By symbol id.
  std::vector<unsigned> SlotOwner;          ///< By symbol id.
  std::vector<uint64_t> SpecBit;            ///< Taint mode: by op index.
  std::vector<uint64_t> Consts;
  std::vector<uint32_t> BlockStart;
  uint32_t CurTemps = 0;
  unsigned NumProfileSlots = 0;

  // Machine state.
  PagedMemory Memory;             ///< Keyed by Addr >> 3.
  std::vector<uint64_t> Regs;     ///< Value slots of the live frames.
  std::vector<Shadow> ShadowRegs; ///< Taint mode: parallel to Regs.
  std::vector<uint64_t> ArgBuf;
  std::vector<Shadow> ArgShadowBuf;
  size_t RegTop = 0;
  uint64_t StackTop = layout::StackBase;
  uint64_t HeapTop = layout::HeapBase;
  unsigned CallDepth = 0;
  /// Address of the cell the last chain pointer was loaded from: what an
  /// advanced load's chain-pointer ALAT entry covers.
  uint64_t LastChainSlot = 0;
  /// Sorted by address: globals are fixed, the stack is LIFO (addresses
  /// descending) and the heap only appends.
  std::vector<Object> GlobalObjs, StackObjs, HeapObjs;
  SiteCache Found; ///< What the last lookUp found.

  // Hook state. The edge profile counts calls per function here and edge
  // traversals in the branch ops; block counts follow at the end.
  std::vector<SiteCache> Sites; ///< By alias-profile slot.
  std::vector<uint64_t> Calls;
  std::unordered_map<uint64_t, Shadow> MemTaint; ///< Keyed by Addr >> 3.
  std::map<std::tuple<const Function *, unsigned, TaintTrace::Sink>, size_t>
      LeakIndex;

  std::vector<std::string> Output;
  uint64_t StmtsExecuted = 0, LoadsExecuted = 0, StoresExecuted = 0;
  bool Trapped = false;
  std::string TrapMessage;
};

uint32_t Engine::slotOf(const Operand &Op) {
  if (Op.isTemp())
    return Op.TempId;
  if (Op.isNone()) // Read only where the verifier allows it: as 0.
    return CurTemps;
  // One slot per constant operand: a frame costs O(statements) to set
  // up either way, and no search makes decode linear.
  Consts.push_back(Op.K == Operand::Kind::ConstInt
                       ? static_cast<uint64_t>(Op.IntVal)
                       : std::bit_cast<uint64_t>(Op.FloatVal));
  return CurTemps + 1 + static_cast<uint32_t>(Consts.size());
}

void Engine::decodeRef(Op &O, const MemRef &Ref, unsigned FI) {
  const Symbol *Sym = Ref.Base;
  bool Ours = Sym->Id < M.numSymbols() && M.symbol(Sym->Id) == Sym;
  O.C = CurTemps; // The zero slot, for globals and unresolved bases.
  if (Ours && Sym->Kind == SymbolKind::Global) {
    O.K = GlobalAddr[Sym->Id];
  } else if (Ours && SlotOwner[Sym->Id] == FI) {
    O.C = CurTemps + 1;
    O.K = SlotOff[Sym->Id];
  } else {
    O.Bad = true; // Traps when it executes, not here.
  }
  O.Depth = static_cast<uint8_t>(Ref.Depth);
  O.B = slotOf(Ref.Index);
  O.L = static_cast<uint64_t>(Ref.Offset);
}

void Engine::decode(bool Observed) {
  unsigned NS = M.numSymbols();
  GlobalAddr.assign(NS, 0);
  SlotOff.assign(NS, 0);
  SlotOwner.assign(NS, ~0u);
  uint64_t Next = layout::GlobalBase;
  for (const Symbol *G : M.globals()) {
    GlobalAddr[G->Id] = Next;
    if (KeepObjects)
      GlobalObjs.push_back(Object{Next, Next + G->sizeInBytes(), G->Id});
    Next += layout::objectSpan(G->sizeInBytes());
  }
  size_t NumOps = 0;
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI)
    for (unsigned BI = 0; BI < M.function(FI)->numBlocks(); ++BI)
      NumOps += M.function(FI)->block(BI)->size() + 2;
  Ops.reserve(NumOps);
  Funcs.resize(M.numFunctions());
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI)
    decodeFunction(FI, Observed);
  if (TT) { // The advanced loads' ops come in specSiteIndex's order.
    SpecBit.assign(Ops.size(), 0);
    std::vector<std::pair<const Stmt *, unsigned>> Sites = specSiteIndex(M);
    for (size_t I = 0, Site = 0; I < Ops.size() && Site < Sites.size(); ++I)
      if (Ops[I].Kind == OpKind::Load && Ops[I].S == Sites[Site].first)
        SpecBit[I] = 1ULL << Sites[Site++].second;
  }
}

void Engine::decodeFunction(unsigned FI, bool Observed) {
  const Function &F = *M.function(FI);
  DecodedFunc &DF = Funcs[FI];
  DF.F = &F;
  DF.NumTemps = CurTemps = F.numTemps();
  DF.FirstObj = static_cast<uint32_t>(Objs.size());
  DF.NumFormals = static_cast<uint32_t>(F.formals().size());
  for (const std::vector<Symbol *> *Syms : {&F.formals(), &F.locals()})
    for (const Symbol *Sym : *Syms) {
      uint64_t Bytes = std::max<uint64_t>(Sym->sizeInBytes(), 8);
      DF.FrameBytes += (Bytes + 63) & ~63ULL;
      Objs.push_back(FrameObj{DF.FrameBytes, Bytes, Sym});
      SlotOwner[Sym->Id] = FI;
    }
  DF.NumObjs = static_cast<uint32_t>(Objs.size()) - DF.FirstObj;
  for (size_t I = DF.FirstObj; I < Objs.size(); ++I)
    SlotOff[Objs[I].Sym->Id] = Objs[I].Off = DF.FrameBytes - Objs[I].Off;

  Consts.clear();
  BlockStart.assign(F.numBlocks(), 0);
  DF.Entry = static_cast<uint32_t>(Ops.size());
  DF.FirstBlock = static_cast<uint32_t>(Blocks.size());
  for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
    const BasicBlock &BB = *F.block(BI);
    BlockStart[BI] = static_cast<uint32_t>(Ops.size());
    size_t Head = Ops.size();
    Ops.push_back(Op{OpKind::Enter});
    for (size_t SI = 0; SI < BB.size(); ++SI) {
      const Stmt &S = *BB.stmt(SI);
      Op O;
      O.S = &S;
      O.Dst = S.Dst;
      switch (S.Kind) {
      case StmtKind::Assign:
        O.Kind = static_cast<OpKind>(S.Op);
        O.A = slotOf(S.A);
        O.B = slotOf(S.B);
        O.C = slotOf(S.C);
        break;
      case StmtKind::Load:
        decodeRef(O, S.Ref, FI);
        // Only an indirect ld.c reads its address from @addr (the one
        // such form the verifier accepts besides chk.a).
        O.A = S.AddrSrc != NoTemp && S.Ref.isIndirect() &&
                      (S.Flag == SpecFlag::LdC || S.Flag == SpecFlag::LdCnc)
                  ? S.AddrSrc
                  : NoSlot;
        O.Kind = Observed || O.Bad || S.Flag != SpecFlag::None ||
                         S.AddrDst != NoTemp || S.AddrSrc != NoTemp
                     ? OpKind::Load
                 : O.Depth ? OpKind::LoadChain
                           : OpKind::LoadDirect;
        break;
      case StmtKind::Store:
        decodeRef(O, S.Ref, FI);
        O.A = slotOf(S.A);
        O.Kind = Observed || O.Bad || S.StA || S.AddrDst != NoTemp
                     ? OpKind::Store
                 : O.Depth ? OpKind::StoreChain
                           : OpKind::StoreDirect;
        break;
      case StmtKind::AddrOf:
        decodeRef(O, S.Ref, FI);
        O.Kind = OpKind::AddrOf;
        break;
      case StmtKind::Alloc:
        O.Kind = OpKind::Alloc;
        O.A = slotOf(S.A);
        break;
      case StmtKind::Call:
        O.Kind = OpKind::Call;
        O.Dst = S.Dst == NoTemp ? NoSlot : S.Dst;
        O.Aux = S.Callee->index();
        O.A = static_cast<uint32_t>(ArgSlots.size());
        O.B = static_cast<uint32_t>(S.Args.size());
        for (const Operand &Arg : S.Args)
          ArgSlots.push_back(slotOf(Arg));
        break;
      case StmtKind::Invala:
        O.Kind = OpKind::Invala;
        break;
      case StmtKind::Print:
        O.Kind = OpKind::Print;
        O.A = slotOf(S.A);
        O.Bad = S.A.K == Operand::Kind::ConstFloat ||
                (S.A.isTemp() && F.tempType(S.A.TempId) == TypeKind::Float);
        break;
      }
      if (O.Kind == OpKind::LoadDirect || O.Kind == OpKind::StoreDirect ||
          O.Kind == OpKind::AddrOf)
        O.K += O.L;
      if (S.accessesMemory()) {
        O.Aux = NumProfileSlots;
        NumProfileSlots += O.Depth;
      }
      Ops.push_back(O);
      ++Ops[Head].A;
      Ops[Head].B += loadsOf(O);
      Ops[Head].C += storesOf(O);
      // A call ends its stretch: the callee spends fuel before the rest.
      if (S.Kind == StmtKind::Call && SI + 1 < BB.size()) {
        Head = Ops.size();
        Ops.push_back(Op{OpKind::Resume});
      }
    }
    // Targets stay block ids until every block has its ops.
    const Terminator &T = BB.term();
    Op O;
    O.Aux = static_cast<uint32_t>(Blocks.size());
    O.S = BB.size() ? BB.stmt(BB.size() - 1) : nullptr;
    O.B = T.Target ? T.Target->getId() : NoSlot;
    O.C = T.FalseTarget ? T.FalseTarget->getId() : NoSlot;
    O.Kind = T.Kind == TermKind::Br       ? OpKind::Br
             : T.Kind == TermKind::CondBr ? OpKind::CondBr
                                          : OpKind::Ret;
    O.A = slotOf(T.Kind == TermKind::CondBr ? T.Cond : T.RetVal);
    Ops.push_back(O);
    Blocks.push_back(&BB);
  }
  // A missing target returns 0, as a null successor always did.
  uint32_t RetStub = NoSlot;
  auto Resolve = [&](uint32_t &Target) {
    if (Target == NoSlot && RetStub == NoSlot) {
      RetStub = static_cast<uint32_t>(Ops.size());
      Ops.push_back(Op{OpKind::Ret});
      Ops.back().A = CurTemps;
    }
    Target = Target == NoSlot ? RetStub : BlockStart[Target];
  };
  for (size_t I = DF.Entry, E = Ops.size(); I < E; ++I)
    if (Ops[I].Kind == OpKind::Br || Ops[I].Kind == OpKind::CondBr) {
      Resolve(Ops[I].B);
      if (Ops[I].Kind == OpKind::CondBr)
        Resolve(Ops[I].C);
    }
  DF.NumSlots = CurTemps + 2 + static_cast<uint32_t>(Consts.size());
  DF.FirstInit = static_cast<uint32_t>(Inits.size());
  Inits.resize(Inits.size() + CurTemps + 2, 0);
  Inits.insert(Inits.end(), Consts.begin(), Consts.end());
}

// Fuel is one unit per block entry and one per statement, checked before
// each. A stretch (a block's statements up to and including a call, or up
// to the terminator) is charged at its head along with its statement,
// load and store counts. When the fuel does not cover the stretch, the
// first statement it does not cover becomes FuelOut, so the run traps
// exactly where per-statement charging would. The ops are this run's
// own, so patching them is safe.
bool Engine::charge(Op *Head, bool Entry) {
  if (FuelLeft >= Head->A + Entry) {
    FuelLeft -= Head->A + Entry;
  } else {
    if (Entry && FuelLeft-- == 0) {
      trap("fuel exhausted");
      return false;
    }
    Op *Stop = Head + 1 + FuelLeft;
    uncount(Stop); // Taken back before the counts are added below.
    Stop->Kind = OpKind::FuelOut;
    FuelLeft = 0;
  }
  StmtsExecuted += Head->A;
  LoadsExecuted += Head->B;
  StoresExecuted += Head->C;
  return true;
}

// Takes back the counts of the stretch's statements from \p From on.
void Engine::uncount(const Op *From) {
  for (const Op *O = From; O->Kind < OpKind::Enter; ++O) {
    --StmtsExecuted;
    LoadsExecuted -= loadsOf(*O);
    StoresExecuted -= storesOf(*O);
    if (O->Kind == OpKind::Call)
      break;
  }
}

uint64_t Engine::allocHeap(const Symbol &Sym, uint64_t Bytes) {
  Bytes = std::max<uint64_t>((Bytes + 7) & ~7ULL, 8);
  uint64_t Start = HeapTop;
  HeapTop += layout::objectSpan(Bytes);
  if (KeepObjects)
    HeapObjs.push_back(Object{Start, Start + Bytes, Sym.Id});
  if (TT)
    for (uint64_t Cell = Start; Cell < Start + Bytes; Cell += 8)
      MemTaint[Cell >> 3] = Shadow{Sym.Secret, 0};
  return Start;
}

const Object *Engine::objectAt(uint64_t Addr, bool &OnStack) const {
  const std::vector<Object> *Region = &GlobalObjs;
  if (Addr >= layout::HeapBase) {
    Region = &HeapObjs;
  } else if (Addr >= layout::StackBase) {
    return nullptr;
  } else if ((OnStack = Addr >= StackTop)) {
    auto It = std::partition_point(
        StackObjs.begin(), StackObjs.end(),
        [Addr](const Object &O) { return O.Start > Addr; });
    return It != StackObjs.end() && Addr < It->End ? &*It : nullptr;
  }
  auto It = std::upper_bound(
      Region->begin(), Region->end(), Addr,
      [](uint64_t A, const Object &O) { return A < O.Start; });
  return It != Region->begin() && Addr < (--It)->End ? &*It : nullptr;
}

void Engine::lookUp(SiteCache &C, const Op &O, unsigned Level,
                    uint64_t Addr, const DecodedFunc &DF) {
  bool OnStack = false;
  const Object *Obj = objectAt(Addr, OnStack);
  unsigned Sym = Obj ? Obj->SymbolId : AliasProfile::UnknownTarget;
  if (Sym != C.Sym)
    AP->recordTarget(DF.F, O.S->Id, Level, C.Sym = Sym);
  C.Start = Obj ? Obj->Start : 0;
  C.Size = Obj && !OnStack ? Obj->End - Obj->Start : 0;
  Found = C;
}

void Engine::recordLeak(const DecodedFunc &DF, TaintTrace::Sink Sink,
                        unsigned Line, const Shadow &Sh) {
  if (!Sh.leaks())
    return;
  auto [It, New] = LeakIndex.try_emplace(std::make_tuple(DF.F, Line, Sink),
                                         TT->Leaks.size());
  if (New)
    TT->Leaks.push_back(TaintTrace::Leak{Sink, DF.F->getName(), Line, 0});
  TT->Leaks[It->second].SpecMask |= Sh.Spec;
}

template <unsigned H>
bool Engine::invoke(const DecodedFunc &DF, unsigned NArgs, uint64_t &Ret,
                    Shadow &RetSh) {
  constexpr bool All = H == AllHooks;
  if (++CallDepth > MaxCallDepth) {
    trap("call depth limit exceeded");
    return false;
  }
  if (H != NoHooks && EP)
    ++Calls[DF.F->index()];
  size_t Base = RegTop;
  RegTop += DF.NumSlots;
  if (Regs.size() < RegTop)
    Regs.resize(std::max(RegTop, 2 * Regs.size()));
  std::copy_n(Inits.data() + DF.FirstInit, DF.NumSlots, Regs.data() + Base);
  if (All && TT) {
    ShadowRegs.resize(Regs.size());
    std::fill_n(ShadowRegs.data() + Base, DF.NumSlots, Shadow());
  }
  uint64_t SavedTop = StackTop;
  StackTop -= DF.FrameBytes;
  Regs[Base + DF.NumTemps + 1] = StackTop;
  for (uint32_t I = 0; I < DF.NumObjs; ++I) {
    const FrameObj &FO = Objs[DF.FirstObj + I];
    uint64_t Start = StackTop + FO.Off;
    if (KeepObjects)
      StackObjs.push_back(Object{Start, Start + FO.Bytes, FO.Sym->Id});
    // Taint mode: a fresh slot carries exactly its symbol's label, even
    // though memory may still hold a popped frame's bits. "Fresh slots
    // are fresh" keeps the dynamic taint an under-approximation of the
    // symbol-granular static analysis, so dynamic leaks are always
    // statically visible.
    if (All && TT)
      for (uint64_t Cell = Start; Cell < Start + FO.Bytes; Cell += 8)
        MemTaint[Cell >> 3] = Shadow{FO.Sym->Secret, 0};
  }
  for (unsigned I = 0; I < NArgs && I < DF.NumFormals; ++I) {
    uint64_t Addr = StackTop + Objs[DF.FirstObj + I].Off;
    write64(Addr, ArgBuf[I]);
    if (All && TT)
      MemTaint[Addr >> 3].merge(ArgShadowBuf[I]);
  }

  bool Ok = exec<H>(DF, Base, Ret, RetSh);
  if (KeepObjects)
    StackObjs.resize(StackObjs.size() - DF.NumObjs);
  StackTop = SavedTop;
  RegTop = Base;
  --CallDepth;
  if (All && AO)
    AO->onReturn(DF.F);
  return Ok;
}

// The address of a load or store. The plain kinds pass no shadow and
// need only the address; the others also get the last chain pointer.
template <unsigned H>
uint64_t Engine::walk(const Op &O, const uint64_t *V, const DecodedFunc &DF,
                      uint64_t &ChainPtr, Shadow *WalkShadow) {
  if (O.Bad)
    trapBadBase(*O.S);
  uint64_t Addr = V[O.C] + O.K;
  const uint64_t Extra = O.L + V[O.B] * 8;
  // The chain an advanced load walks is speculative too.
  const bool SpecChain =
      H == AllHooks && O.S->isLoad() && isAdvancedFlag(O.S->Flag);
  ChainPtr = Addr;
  for (unsigned Level = 1; Level <= O.Depth; ++Level) {
    if (H == AllHooks && Level == O.Depth)
      LastChainSlot = Addr;
    if (H == AllHooks)
      recordAccess(Addr, /*IsLoad=*/true, SpecChain);
    if (H == AllHooks && WalkShadow) {
      WalkShadow->merge(memShadow(Addr));
      if (SpecChain)
        WalkShadow->Spec |= SpecBit[&O - Ops.data()];
    }
    ChainPtr = Addr = read64(Addr);
    if (Level == O.Depth)
      Addr += Extra;
    if (H != NoHooks && AP)
      observe(O, Level, Addr, DF);
  }
  return O.Depth ? Addr : Addr + Extra;
}

// Any load. An indirect ld.c takes the saved chain pointer and re-applies
// index and offset; chk.a re-walks the chain (its recovery reloads the
// address) and refreshes the saved pointer.
template <unsigned H>
void Engine::load(const Op &O, uint64_t *V, Shadow *Sh,
                  const DecodedFunc &DF) {
  constexpr bool All = H == AllHooks;
  const Stmt &S = *O.S;
  const bool ChkA = S.Flag == SpecFlag::ChkA || S.Flag == SpecFlag::ChkAnc;
  const bool Refresh = ChkA && S.AddrSrc != NoTemp;
  uint64_t Addr, ChainPtr = 0;
  uint64_t PtrPre = Refresh ? V[S.AddrSrc] : 0; // Before the refresh.
  Shadow AddrShadow; // Taint mode: the final address's shadow.
  if (O.A != NoSlot) {
    Addr = V[O.A] + O.L + V[O.B] * 8;
    if (All && Sh)
      AddrShadow = Sh[O.A];
  } else {
    Addr = walk<H>(O, V, DF, ChainPtr, All && Sh ? &AddrShadow : nullptr);
    if (Refresh) {
      V[S.AddrSrc] = ChainPtr;
      // The check re-walked the chain architecturally, so the saved
      // pointer's shadow is refreshed from the (non-speculative) walk.
      if (All && Sh)
        setShadow(Sh, DF, S.AddrSrc, AddrShadow);
    }
  }
  if (All && Sh)
    AddrShadow.merge(Sh[O.B]);
  if (S.AddrDst != NoTemp) {
    V[S.AddrDst] = S.Ref.isIndirect() ? ChainPtr : Addr;
    if (All && Sh)
      setShadow(Sh, DF, S.AddrDst, AddrShadow);
  }
  const uint64_t RegPre = V[O.Dst];
  if (All)
    recordAccess(Addr, /*IsLoad=*/true, isAdvancedFlag(S.Flag));
  if (All && TT)
    recordLeak(DF, TaintTrace::Sink::Address, S.Line, AddrShadow);
  const uint64_t Value = V[O.Dst] = read64(Addr);
  if (All && Sh) {
    Shadow DstShadow = memShadow(Addr);
    DstShadow.merge(AddrShadow);
    if (isAdvancedFlag(S.Flag))
      DstShadow.Spec |= SpecBit[&O - Ops.data()];
    // Checking loads re-define Dst from architectural memory without an
    // advanced bit: a checked value stops being speculative.
    setShadow(Sh, DF, O.Dst, DstShadow);
  }
  if (!All || !AO || S.Flag == SpecFlag::None)
    return;
  if (isAdvancedFlag(S.Flag)) {
    // Lowering allocates the chain-pointer entry first, then the data
    // entry (accessAddress, then the ld.a itself).
    if (S.Ref.isIndirect() && S.AddrDst != NoTemp)
      AO->onAllocate(DF.F, S.AddrDst, LastChainSlot);
    AO->onAllocate(DF.F, S.Dst, Addr);
  } else if (ChkA) {
    // chk.a checks the chain pointer; on a miss its recovery re-executes
    // both advanced loads, then the continuation re-checks the data with
    // ld.c.nc (see codegen/Lowering.cpp).
    bool PtrHit =
        !Refresh || AO->onCheck(DF.F, S.AddrSrc, LastChainSlot,
                                /*Clear=*/S.Flag == SpecFlag::ChkA, PtrPre,
                                ChainPtr);
    if (!PtrHit) {
      AO->onAllocate(DF.F, S.AddrSrc, LastChainSlot);
      AO->onAllocate(DF.F, S.Dst, Addr);
    }
    AO->onCheck(DF.F, S.Dst, Addr, /*Clear=*/false, PtrHit ? RegPre : Value,
                Value);
  } else {
    AO->onCheck(DF.F, S.Dst, Addr, /*Clear=*/S.Flag == SpecFlag::LdC,
                RegPre, Value);
  }
}

template <unsigned H>
void Engine::store(const Op &O, uint64_t *V, Shadow *Sh,
                   const DecodedFunc &DF) {
  constexpr bool All = H == AllHooks;
  const Stmt &S = *O.S;
  uint64_t ChainPtr;
  Shadow AddrShadow;
  uint64_t Addr =
      walk<H>(O, V, DF, ChainPtr, All && Sh ? &AddrShadow : nullptr);
  if (All && Sh)
    AddrShadow.merge(Sh[O.B]);
  if (S.AddrDst != NoTemp) {
    V[S.AddrDst] = Addr; // Stores expose the final address.
    if (All && Sh)
      setShadow(Sh, DF, S.AddrDst, AddrShadow);
  }
  if (All)
    recordAccess(Addr, /*IsLoad=*/false, /*Speculative=*/false);
  if (All && TT)
    recordLeak(DF, TaintTrace::Sink::Address, S.Line, AddrShadow);
  write64(Addr, V[O.A]);
  if (All && Sh)
    MemTaint[Addr >> 3] = Sh[O.A]; // Strong update.
  if (All && AO) {
    AO->onStore(Addr);
    if (S.StA && S.AlatDst != NoTemp)
      AO->onAllocate(DF.F, S.AlatDst, Addr);
  }
}

// The threaded executor: every handler dispatches the next op itself.
template <unsigned H>
bool Engine::exec(const DecodedFunc &DF, size_t Base, uint64_t &Ret,
                  Shadow &RetSh) {
  constexpr bool Hooks = H != NoHooks, All = H == AllHooks;
  static const void *const Dispatch[] = {
#define SRP_LABEL(K) &&H_##K,
      SRP_INTERP_OPS(SRP_LABEL)
#undef SRP_LABEL
  };
  uint64_t *V = Regs.data() + Base;
  Shadow *Sh = All && TT ? ShadowRegs.data() + Base : nullptr;
  Op *PC = Ops.data() + DF.Entry;
  auto I = [](uint64_t X) { return static_cast<int64_t>(X); };
  auto D = [](uint64_t X) { return std::bit_cast<double>(X); };
  auto U = [](double X) { return std::bit_cast<uint64_t>(X); };
#define SRP_DISPATCH() goto *Dispatch[static_cast<uint8_t>(PC->Kind)]
#define SRP_NEXT()                                                             \
  do {                                                                         \
    ++PC;                                                                      \
    SRP_DISPATCH();                                                            \
  } while (0)
// Memory ops and AddrOf are the statements that can trap.
#define SRP_NEXT_CHECKED()                                                     \
  do {                                                                         \
    if (Trapped) [[unlikely]]                                                  \
      return trapped(PC);                                                      \
    SRP_NEXT();                                                                \
  } while (0)
#define SRP_ASSIGN(K, EXPR)                                                    \
  H_##K : {                                                                    \
    const uint64_t A = V[PC->A], B = V[PC->B];                                 \
    (void)A, (void)B;                                                          \
    V[PC->Dst] = (EXPR);                                                       \
    if (All && Sh) {                                                           \
      Shadow X = Sh[PC->A];                                                    \
      X.merge(Sh[PC->B]);                                                      \
      X.merge(Sh[PC->C]);                                                      \
      setShadow(Sh, DF, PC->Dst, X);                                           \
    }                                                                          \
    SRP_NEXT();                                                                \
  }
  SRP_DISPATCH();
  SRP_ASSIGN(Copy, A)
  SRP_ASSIGN(Add, A + B)
  SRP_ASSIGN(Sub, A - B)
  SRP_ASSIGN(Mul, A * B)
  SRP_ASSIGN(Div, divI64(A, B))
  SRP_ASSIGN(Rem, remI64(A, B))
  SRP_ASSIGN(And, A & B)
  SRP_ASSIGN(Or, A | B)
  SRP_ASSIGN(Xor, A ^ B)
  SRP_ASSIGN(Shl, A << (B & 63))
  SRP_ASSIGN(Shr, A >> (B & 63))
  SRP_ASSIGN(CmpEq, I(A) == I(B))
  SRP_ASSIGN(CmpNe, I(A) != I(B))
  SRP_ASSIGN(CmpLt, I(A) < I(B))
  SRP_ASSIGN(CmpLe, I(A) <= I(B))
  SRP_ASSIGN(FAdd, U(D(A) + D(B)))
  SRP_ASSIGN(FSub, U(D(A) - D(B)))
  SRP_ASSIGN(FMul, U(D(A) * D(B)))
  SRP_ASSIGN(FDiv, U(D(B) == 0.0 ? 0.0 : D(A) / D(B)))
  SRP_ASSIGN(FCmpLt, D(A) < D(B))
  SRP_ASSIGN(IntToFp, U(static_cast<double>(I(A))))
  SRP_ASSIGN(FpToInt, static_cast<uint64_t>(static_cast<int64_t>(D(A))))
  SRP_ASSIGN(Select, A != 0 ? B : V[PC->C])
#undef SRP_ASSIGN
H_LoadDirect:
  V[PC->Dst] = read64(V[PC->C] + PC->K + V[PC->B] * 8);
  SRP_NEXT_CHECKED();
H_LoadChain: {
  uint64_t ChainPtr;
  V[PC->Dst] = read64(walk<H>(*PC, V, DF, ChainPtr, nullptr));
  SRP_NEXT_CHECKED();
}
H_Load:
  load<H>(*PC, V, Sh, DF);
  SRP_NEXT_CHECKED();
H_StoreDirect:
  write64(V[PC->C] + PC->K + V[PC->B] * 8, V[PC->A]);
  SRP_NEXT_CHECKED();
H_StoreChain: {
  uint64_t ChainPtr;
  write64(walk<H>(*PC, V, DF, ChainPtr, nullptr), V[PC->A]);
  SRP_NEXT_CHECKED();
}
H_Store:
  store<H>(*PC, V, Sh, DF);
  SRP_NEXT_CHECKED();
H_AddrOf:
  if (PC->Bad)
    trapBadBase(*PC->S);
  V[PC->Dst] = V[PC->C] + PC->K + V[PC->B] * 8;
  if (All && Sh)
    setShadow(Sh, DF, PC->Dst, Sh[PC->B]);
  SRP_NEXT_CHECKED();
H_Alloc:
  V[PC->Dst] = allocHeap(*PC->S->HeapSym,
                         static_cast<uint64_t>(std::max<int64_t>(
                             I(V[PC->A]), 1)) * 8);
  if (All && Sh)
    setShadow(Sh, DF, PC->Dst, Shadow());
  SRP_NEXT();
H_Call: {
  const uint32_t *Args = ArgSlots.data() + PC->A;
  ArgBuf.resize(PC->B);
  for (uint32_t A = 0; A < PC->B; ++A)
    ArgBuf[A] = V[Args[A]];
  if (All && Sh) {
    ArgShadowBuf.resize(PC->B);
    for (uint32_t A = 0; A < PC->B; ++A)
      ArgShadowBuf[A] = Sh[Args[A]];
  }
  uint64_t CallRet = 0;
  Shadow CallRetSh;
  if (!invoke<H>(Funcs[PC->Aux], PC->B, CallRet, CallRetSh))
    return false;
  V = Regs.data() + Base;
  if (All && Sh)
    Sh = ShadowRegs.data() + Base;
  if (PC->Dst != NoSlot) {
    V[PC->Dst] = CallRet;
    if (All && Sh)
      setShadow(Sh, DF, PC->Dst, CallRetSh);
  }
  SRP_NEXT();
}
H_Invala: // An architectural hint; no functional effect.
  if (All && AO)
    AO->onInvala(DF.F, PC->Dst);
  SRP_NEXT();
H_Print: {
  uint64_t X = V[PC->A];
  if (All && TT)
    recordLeak(DF, TaintTrace::Sink::Output, PC->S->Line, Sh[PC->A]);
  Output.push_back(PC->Bad ? formatString("%.6g", D(X))
                           : formatString("%lld", (long long)I(X)));
  SRP_NEXT();
}
H_Enter: // A block entry costs a unit of its own, so a cycle of
         // statement-free blocks still exhausts the budget.
  if (!charge(PC, /*Entry=*/true))
    return false;
  SRP_NEXT();
H_Resume:
  charge(PC, /*Entry=*/false);
  SRP_NEXT();
H_Br:
  if (Hooks && EP)
    ++PC->K;
  PC = Ops.data() + PC->B;
  SRP_DISPATCH();
H_CondBr: {
  bool Taken = V[PC->A] != 0;
  // Terminators carry no line; a branch leak is attributed to the
  // block's final statement (0 for a statement-free block).
  if (All && TT)
    recordLeak(DF, TaintTrace::Sink::Branch, PC->S ? PC->S->Line : 0,
               Sh[PC->A]);
  if (Hooks && EP)
    ++(Taken ? PC->K : PC->L);
  PC = Ops.data() + (Taken ? PC->B : PC->C);
  SRP_DISPATCH();
}
H_Ret:
  Ret = V[PC->A];
  if (All && Sh)
    RetSh = Sh[PC->A];
  return true;
H_FuelOut:
  trap("fuel exhausted");
  return false;
#undef SRP_NEXT_CHECKED
#undef SRP_NEXT
#undef SRP_DISPATCH
}

// A block is entered once per call of its function (the entry block) and
// once per traversal of an edge into it, so the executor counts only
// calls and edges.
void Engine::flushEdgeProfile() {
  std::vector<uint64_t> Entries(Blocks.size(), 0);
  for (const DecodedFunc &DF : Funcs)
    Entries[DF.FirstBlock] += Calls[DF.F->index()];
  for (const Op &O : Ops) {
    if (O.Kind != OpKind::Br && O.Kind != OpKind::CondBr)
      continue;
    const Terminator &T = Blocks[O.Aux]->term();
    for (auto [To, N] :
         {std::pair(T.Target, O.K), std::pair(T.FalseTarget, O.L)})
      if (To && N) {
        Entries[Funcs[To->getParent()->index()].FirstBlock + To->getId()] += N;
        EP->addEdge(Blocks[O.Aux], To, N);
      }
  }
  for (size_t B = 0; B < Blocks.size(); ++B)
    if (Entries[B])
      EP->addBlock(Blocks[B], Entries[B]);
}

RunResult Engine::run() {
  RunResult Result;
  const Function *Main = M.findFunction("main");
  if (!Main) {
    Result.Error = "module has no main function";
    return Result;
  }
  if (MT)
    *MT = MemTrace();
  if (TT)
    *TT = TaintTrace();
  const bool Observed = AO || MT || TT;
  decode(Observed);
  if (TT)
    for (const Symbol *G : M.globals())
      for (unsigned I = 0; G->Secret && I < G->NumElems; ++I)
        MemTaint[(GlobalAddr[G->Id] + 8 * I) >> 3] = Shadow{true, 0};
  if (AP)
    Sites.resize(NumProfileSlots);
  if (EP) {
    Calls.assign(Funcs.size(), 0);
  }

  const DecodedFunc &DM = Funcs[Main->index()];
  uint64_t RetBits = 0;
  Shadow RetSh;
  bool Ok = Observed     ? invoke<AllHooks>(DM, 0, RetBits, RetSh)
            : (AP || EP) ? invoke<ProfileHooks>(DM, 0, RetBits, RetSh)
                         : invoke<NoHooks>(DM, 0, RetBits, RetSh);
  if (EP)
    flushEdgeProfile();
  // A trapped run reports what it executed up to the trap as well.
  Result.Output = std::move(Output);
  Result.StmtsExecuted = StmtsExecuted;
  Result.LoadsExecuted = LoadsExecuted;
  Result.StoresExecuted = StoresExecuted;
  if (!Ok) {
    Result.Error = TrapMessage;
    return Result;
  }
  if (MT)
    for (const Symbol *G : M.globals())
      for (unsigned I = 0; I < G->NumElems; ++I)
        MT->FinalGlobals.push_back(read64(GlobalAddr[G->Id] + 8 * I));
  Result.Ok = true;
  Result.ExitValue = static_cast<int64_t>(RetBits);
  return Result;
}

} // namespace

RunResult Interpreter::run(uint64_t Fuel) {
  return Engine(M, AP, EP, AO, MT, TT, Fuel).run();
}

const char *srp::interp::taintSinkName(TaintTrace::Sink S) {
  switch (S) {
  case TaintTrace::Sink::Address:
    return "address";
  case TaintTrace::Sink::Branch:
    return "branch";
  case TaintTrace::Sink::Output:
    return "output";
  }
  SRP_UNREACHABLE("invalid taint sink");
}

std::vector<std::pair<const ir::Stmt *, unsigned>>
srp::interp::specSiteIndex(const ir::Module &M) {
  std::vector<std::pair<const ir::Stmt *, unsigned>> Sites;
  unsigned Next = 0;
  for (unsigned FI = 0, FE = M.numFunctions(); FI != FE; ++FI) {
    const Function *F = M.function(FI);
    for (unsigned BI = 0, BE = F->numBlocks(); BI != BE; ++BI) {
      const BasicBlock *BB = F->block(BI);
      for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI) {
        const Stmt *S = BB->stmt(SI);
        if (S->Kind == StmtKind::Load && isAdvancedFlag(S->Flag)) {
          Sites.emplace_back(S, std::min(Next, 63u));
          ++Next;
        }
      }
    }
  }
  return Sites;
}
