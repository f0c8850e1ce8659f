//===- CheckCleanup.cpp - Dead check elimination -------------------------------===//
//
// Stage 7 of the staged SSAPRE pass (see PromotionContext.h): erases
// checks (the ld.c family inserted after stores) whose promoted temp
// either has no reaching definition or no observable use afterwards.
// Runs two cheap per-temp bit-vector dataflows (reaching-def forward,
// liveness backward) instead of rebuilding SSA.
//
//===----------------------------------------------------------------------===//

#include "pre/PromotionContext.h"

#include <algorithm>

using namespace srp;
using namespace srp::ir;
using namespace srp::pre;
using namespace srp::pre::detail;

void detail::cleanupChecks(PromotionContext &Ctx) {
  Function &F = Ctx.F;
  std::set<const Stmt *> Protected;
  for (const auto &R : Ctx.Plan.InvalaReuses)
    Protected.insert(R.S);
  // Only temps some check writes can lose a check; the dataflows below
  // are skipped for the rest.
  std::vector<char> HasCheck(F.numTemps(), 0);
  for (unsigned BI = 0; BI < F.numBlocks(); ++BI)
    for (size_t SI = 0; SI < F.block(BI)->size(); ++SI) {
      const Stmt *S = F.block(BI)->stmt(SI);
      if (S->isLoad() && isCheckFlag(S->Flag) && !Protected.count(S))
        HasCheck[S->Dst] = 1;
    }
  for (const auto &TI : Ctx.PromotedTemps) {
    unsigned Temp = TI.first;
    if (!HasCheck[Temp])
      continue;
    unsigned NumBlocks = F.numBlocks();
    // A "definition" is any statement writing Temp that is not itself a
    // check; a "use" is any read of Temp by a non-check statement.
    auto IsCheck = [&](const Stmt *S) {
      return S->isLoad() && isCheckFlag(S->Flag) && S->Dst == Temp &&
             !Protected.count(S);
    };
    auto Defines = [&](const Stmt *S) {
      return (S->definesTemp() && S->Dst == Temp) ||
             (S->isStore() && S->AlatDst == Temp);
    };
    // Reused scratch: collectUsedTemps is called per statement per temp,
    // and a fresh vector here was a malloc per call (hot in profiles).
    std::vector<unsigned> UsedBuf;
    auto Uses = [&](const Stmt *S) {
      UsedBuf.clear();
      S->collectUsedTemps(UsedBuf);
      return std::find(UsedBuf.begin(), UsedBuf.end(), Temp) !=
             UsedBuf.end();
    };
    auto TermUses = [&](const Terminator &T) {
      return (T.Cond.isTemp() && T.Cond.TempId == Temp) ||
             (T.RetVal.isTemp() && T.RetVal.TempId == Temp);
    };

    // Forward "some def reaches" per block entry.
    std::vector<char> DefReachIn(NumBlocks, 0), DefReachOut(NumBlocks, 0);
    // Backward "some use is ahead before any def" per block exit.
    std::vector<char> LiveIn(NumBlocks, 0), LiveOut(NumBlocks, 0);
    // Per-block summaries.
    std::vector<char> HasDef(NumBlocks, 0), UseBeforeDef(NumBlocks, 0);
    for (unsigned BI = 0; BI < NumBlocks; ++BI) {
      BasicBlock *BB = F.block(BI);
      bool SeenDef = false;
      for (size_t SI = 0; SI < BB->size(); ++SI) {
        const Stmt *S = BB->stmt(SI);
        if (Uses(S) && !SeenDef && !IsCheck(S))
          UseBeforeDef[BI] = 1;
        if (Defines(S) && !IsCheck(S))
          SeenDef = true;
      }
      if (TermUses(BB->term()) && !SeenDef)
        UseBeforeDef[BI] = 1;
      HasDef[BI] = SeenDef;
    }
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned BI = 0; BI < NumBlocks; ++BI) {
        BasicBlock *BB = F.block(BI);
        char In = 0;
        for (BasicBlock *Pred : BB->preds())
          In |= DefReachOut[Pred->getId()];
        char Out = HasDef[BI] | In;
        if (In != DefReachIn[BI] || Out != DefReachOut[BI]) {
          DefReachIn[BI] = In;
          DefReachOut[BI] = Out;
          Changed = true;
        }
      }
    }
    Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned BI = 0; BI < NumBlocks; ++BI) {
        BasicBlock *BB = F.block(BI);
        char Out = 0;
        for (BasicBlock *Succ : BB->succs())
          Out |= LiveIn[Succ->getId()];
        char In = UseBeforeDef[BI] | Out; // Checks don't kill liveness.
        if (In != LiveIn[BI] || Out != LiveOut[BI]) {
          LiveIn[BI] = In;
          LiveOut[BI] = Out;
          Changed = true;
        }
      }
    }

    // Scan each block and erase dead checks.
    for (unsigned BI = 0; BI < NumBlocks; ++BI) {
      BasicBlock *BB = F.block(BI);
      for (size_t SI = 0; SI < BB->size();) {
        Stmt *S = BB->stmt(SI);
        if (!IsCheck(S)) {
          ++SI;
          continue;
        }
        // Def available before this check?
        bool DefBefore = DefReachIn[BI];
        for (size_t SJ = 0; SJ < SI; ++SJ)
          if (Defines(BB->stmt(SJ)) && !IsCheck(BB->stmt(SJ)))
            DefBefore = true;
        // Use after this check before a non-check def?
        bool UseAfter = false;
        bool Killed = false;
        for (size_t SJ = SI + 1; SJ < BB->size() && !Killed; ++SJ) {
          const Stmt *S2 = BB->stmt(SJ);
          if (Uses(S2)) {
            UseAfter = true;
            break;
          }
          if (Defines(S2) && !IsCheck(S2))
            Killed = true;
        }
        if (!Killed && !UseAfter)
          UseAfter = TermUses(BB->term()) || LiveOut[BI];
        if (DefBefore && UseAfter) {
          ++SI;
          continue;
        }
        BB->erase(SI);
        ++Ctx.Stats.ChecksRemovedByCleanup;
      }
    }
  }
}
