//===- CopyProp.cpp - Local copy propagation ----------------------------------===//

#include "pre/CopyProp.h"

#include <vector>

using namespace srp;
using namespace srp::ir;
using namespace srp::pre;

CopyPropStats srp::pre::propagateCopies(ir::Function &F) {
  CopyPropStats Stats;

  // Pass 1: block-local propagation. CopyOf[t] is the temp t is a copy of
  // (NoTemp if none); Keys lists the temps given an entry in this block.
  std::vector<unsigned> CopyOf(F.numTemps(), NoTemp);
  std::vector<unsigned> Keys;
  // Chases a temp through the currently-valid copies.
  auto Chase = [&](unsigned Temp) {
    while (CopyOf[Temp] != NoTemp)
      Temp = CopyOf[Temp];
    return Temp;
  };
  for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
    BasicBlock *BB = F.block(BI);
    for (unsigned K : Keys)
      CopyOf[K] = NoTemp;
    Keys.clear();
    auto Rewrite = [&](Operand &Op) {
      if (!Op.isTemp())
        return;
      unsigned To = Chase(Op.TempId);
      if (To != Op.TempId) {
        Op.TempId = To;
        ++Stats.UsesRewritten;
      }
    };
    auto Invalidate = [&](unsigned Redefined) {
      CopyOf[Redefined] = NoTemp;
      for (unsigned K : Keys)
        if (CopyOf[K] == Redefined)
          CopyOf[K] = NoTemp;
    };
    for (size_t SI = 0; SI < BB->size(); ++SI) {
      Stmt *S = BB->stmt(SI);
      Rewrite(S->A);
      Rewrite(S->B);
      Rewrite(S->C);
      Rewrite(S->Ref.Index);
      for (Operand &Arg : S->Args)
        Rewrite(Arg);
      if (S->AddrSrc != NoTemp) {
        unsigned To = Chase(S->AddrSrc);
        if (To != S->AddrSrc) {
          S->AddrSrc = To;
          ++Stats.UsesRewritten;
        }
      }
      if (S->definesTemp())
        Invalidate(S->Dst);
      if (S->AddrDst != NoTemp)
        Invalidate(S->AddrDst);
      if (S->Kind == StmtKind::Store && S->AlatDst != NoTemp)
        Invalidate(S->AlatDst);
      // Skip self-copies (a rewritten `t = copy t`): recording t->t would
      // put a cycle in CopyOf and send Chase spinning.
      if (S->Kind == StmtKind::Assign && S->Op == Opcode::Copy &&
          S->A.isTemp() && S->A.TempId != S->Dst) {
        if (CopyOf[S->Dst] == NoTemp)
          Keys.push_back(S->Dst);
        CopyOf[S->Dst] = S->A.TempId;
      }
    }
    Rewrite(BB->term().Cond);
    Rewrite(BB->term().RetVal);
  }

  // Pass 2: dead pure-assignment elimination to a fixpoint.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<unsigned> UseCount(F.numTemps(), 0);
    auto Count = [&](const Operand &Op) {
      if (Op.isTemp())
        ++UseCount[Op.TempId];
    };
    for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
      BasicBlock *BB = F.block(BI);
      for (size_t SI = 0; SI < BB->size(); ++SI) {
        const Stmt *S = BB->stmt(SI);
        Count(S->A);
        Count(S->B);
        Count(S->C);
        Count(S->Ref.Index);
        for (const Operand &Arg : S->Args)
          Count(Arg);
        if (S->AddrSrc != NoTemp)
          ++UseCount[S->AddrSrc];
        if (S->Kind == StmtKind::Invala)
          ++UseCount[S->Dst]; // invala.e names the temp's register
        if (S->Kind == StmtKind::Store && S->AlatDst != NoTemp)
          ++UseCount[S->AlatDst];
      }
      Count(BB->term().Cond);
      Count(BB->term().RetVal);
    }
    for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
      BasicBlock *BB = F.block(BI);
      for (size_t SI = 0; SI < BB->size();) {
        const Stmt *S = BB->stmt(SI);
        if (S->Kind == StmtKind::Assign && UseCount[S->Dst] == 0) {
          BB->erase(SI);
          ++Stats.AssignsRemoved;
          Changed = true;
          continue;
        }
        ++SI;
      }
    }
  }
  return Stats;
}
