//===- PassManager.cpp - Pass sequencing, timing, disabling -------------------===//

#include "core/Pass.h"

#include "support/Stats.h"
#include "support/Timer.h"

#include <algorithm>

using namespace srp;
using namespace srp::core;

std::vector<std::string> PassManager::passNames() const {
  std::vector<std::string> Names;
  Names.reserve(Passes.size());
  for (const auto &P : Passes)
    Names.emplace_back(P->name());
  return Names;
}

const Pass *PassManager::find(std::string_view Name) const {
  for (const auto &P : Passes)
    if (P->name() == Name)
      return P.get();
  return nullptr;
}

bool PassManager::run(PipelineState &S, const PassCallback &AfterPass) {
  const std::vector<std::string> &Disabled = S.Config.DisabledPasses;
  for (const auto &P : Passes) {
    if (std::find(Disabled.begin(), Disabled.end(), P->name()) !=
        Disabled.end())
      continue;
    uint64_t Nanos = 0;
    bool Ok;
    {
      ScopedTimer T(Nanos);
      Ok = P->run(S);
    }
    StatsRegistry::current().add("pass." + std::string(P->name()) + ".us",
                                 Nanos / 1000);
    if (!Ok) {
      if (S.Result.Error.empty())
        S.Result.Error = "pass '" + std::string(P->name()) + "' failed";
      return false;
    }
    if (AfterPass)
      AfterPass(*P, S);
  }
  S.Result.Ok = true;
  return true;
}
