//===- VerdictStoreTest.cpp - Durable verdict store unit tests -------------===//
//
// Covers the PERSISTENCE.md contracts: CRC-framed record round-trips,
// quarantine-and-continue loading (every-prefix truncation, flipped CRCs,
// garbage frames, headerless files), last-write-wins duplicates, the
// deterministic-verdict eligibility filter, compaction, the
// read-through/write-behind integration with VerifyCache, and the headline
// invariant — warm-store, cold-store, and no-store evaluations are
// bit-identical at any shard/thread configuration.
//
//===----------------------------------------------------------------------===//

#include "store/VerdictStore.h"

#include "data/Dataset.h"
#include "ir/Parser.h"
#include "model/Policy.h"
#include "pipeline/Evaluation.h"
#include "support/FaultInjector.h"
#include "support/IoEnv.h"
#include "support/ThreadPool.h"
#include "trace/Metrics.h"

#include "Golden.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include <unistd.h>

namespace veriopt {
namespace {

//===--- Scratch-file plumbing ----------------------------------------------===//

std::string scratchPath(const std::string &Name) {
  const char *T = std::getenv("TMPDIR");
  std::string Dir = T && *T ? T : "/tmp";
  return Dir + "/veriopt_store_test_" + std::to_string(::getpid()) + "_" +
         Name;
}

struct ScratchFile {
  std::string Path;
  explicit ScratchFile(const std::string &Name) : Path(scratchPath(Name)) {
    std::remove(Path.c_str());
    std::remove((Path + ".lock").c_str());
  }
  ~ScratchFile() {
    std::remove(Path.c_str());
    std::remove((Path + ".lock").c_str());
  }
  void write(const std::string &Text) const {
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    OS << Text;
  }
  std::string read() const {
    std::ifstream IS(Path, std::ios::binary);
    std::ostringstream SS;
    SS << IS.rdbuf();
    return SS.str();
  }
};

//===--- Verdict fixtures ---------------------------------------------------===//

VerifyResult equivalentResult() {
  VerifyResult R;
  R.Status = VerifyStatus::Equivalent;
  R.Kind = DiagKind::None;
  R.SolverConflicts = 0x0123456789ABCDEFull; // must survive as a full u64
  R.FuelSpent = 0xFFFFFFFFFFFFFFFFull;
  R.RetryTier = 2;
  return R;
}

VerifyResult falsifiedResult() {
  VerifyResult R;
  R.Status = VerifyStatus::NotEquivalent;
  R.Kind = DiagKind::ValueMismatch;
  R.Diagnostic = "output mismatch at %y\nwith \"quotes\" and \x1f bytes";
  R.FoundByFalsification = true;
  CexBinding B;
  B.Name = "%x";
  B.Value = APInt64(32, 0xDEADBEEFull);
  R.Counterexample.push_back(B);
  CexBinding B2;
  B2.Name = "%w";
  B2.Value = APInt64(64, 0x8000000000000001ull);
  R.Counterexample.push_back(B2);
  return R;
}

void expectSameResult(const VerifyResult &A, const VerifyResult &B) {
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.Diagnostic, B.Diagnostic);
  EXPECT_EQ(A.BoundedOnly, B.BoundedOnly);
  EXPECT_EQ(A.FoundByFalsification, B.FoundByFalsification);
  EXPECT_EQ(A.SolverConflicts, B.SolverConflicts);
  EXPECT_EQ(A.FuelSpent, B.FuelSpent);
  EXPECT_EQ(A.RetryTier, B.RetryTier);
  ASSERT_EQ(A.Counterexample.size(), B.Counterexample.size());
  for (size_t I = 0; I < A.Counterexample.size(); ++I) {
    EXPECT_EQ(A.Counterexample[I].Name, B.Counterexample[I].Name);
    EXPECT_EQ(A.Counterexample[I].Value.width(),
              B.Counterexample[I].Value.width());
    EXPECT_EQ(A.Counterexample[I].Value.zext(),
              B.Counterexample[I].Value.zext());
  }
}

/// A journal built by hand from encodeRecord, the same bytes a store would
/// write.
std::string journalOf(
    const std::vector<std::pair<std::string, VerifyResult>> &Records) {
  std::string J = std::string(VerdictStore::headerLine()) + "\n";
  for (const auto &[K, R] : Records)
    J += VerdictStore::encodeRecord(K, R);
  return J;
}

//===--- Record framing -----------------------------------------------------===//

TEST(VerdictStore, EncodeDecodeRoundTrip) {
  for (const VerifyResult &R : {equivalentResult(), falsifiedResult()}) {
    std::string Key = "budget|knobs\x1fsource\ntext\x1f"
                      "candidate \"with\" specials\n";
    std::string Line = VerdictStore::encodeRecord(Key, R);
    ASSERT_FALSE(Line.empty());
    EXPECT_EQ(Line.back(), '\n');
    // One physical line despite the embedded newlines in key/diagnostic.
    EXPECT_EQ(Line.find('\n'), Line.size() - 1);

    std::string OutKey;
    VerifyResult Out;
    ASSERT_TRUE(
        VerdictStore::decodeRecord(Line.substr(0, Line.size() - 1), OutKey,
                                   Out));
    EXPECT_EQ(OutKey, Key);
    expectSameResult(R, Out);
  }
}

TEST(VerdictStore, DecodeRejectsTamperedFrames) {
  std::string Line = VerdictStore::encodeRecord("k", equivalentResult());
  Line.pop_back(); // newline
  std::string K;
  VerifyResult R;
  ASSERT_TRUE(VerdictStore::decodeRecord(Line, K, R));

  // Flip one payload byte: CRC must catch it.
  std::string Flipped = Line;
  Flipped[Flipped.size() / 2] ^= 0x20;
  EXPECT_FALSE(VerdictStore::decodeRecord(Flipped, K, R));

  // Flip one CRC digit.
  std::string BadCrc = Line;
  BadCrc[2] = BadCrc[2] == '0' ? '1' : '0';
  EXPECT_FALSE(VerdictStore::decodeRecord(BadCrc, K, R));

  // Garbage frames.
  EXPECT_FALSE(VerdictStore::decodeRecord("", K, R));
  EXPECT_FALSE(VerdictStore::decodeRecord("R", K, R));
  EXPECT_FALSE(VerdictStore::decodeRecord("X" + Line.substr(1), K, R));
  EXPECT_FALSE(VerdictStore::decodeRecord("R zzzzzzzz {}", K, R));
  EXPECT_FALSE(VerdictStore::decodeRecord("not a record at all", K, R));
}

TEST(VerdictStore, DecodeRejectsCexBitsAboveWidth) {
  // Hand-build a payload whose cex value has bits above its width; the
  // frame is CRC-valid so only the field check can reject it.
  std::string P =
      "{\"key\":\"k\",\"status\":\"not-equivalent\",\"diag\":"
      "\"value-mismatch\",\"text\":\"\",\"cex\":[{\"n\":\"%x\",\"w\":8,"
      "\"v\":\"00000000000001ff\"}],\"bounded\":false,\"falsified\":true,"
      "\"conflicts\":\"0000000000000000\",\"fuel\":\"0000000000000000\","
      "\"tier\":0}";
  char Crc[16];
  std::snprintf(Crc, sizeof(Crc), "%08x", VerdictStore::crc32(P));
  std::string K;
  VerifyResult R;
  EXPECT_FALSE(
      VerdictStore::decodeRecord(std::string("R ") + Crc + " " + P, K, R));
}

//===--- Quarantine-and-continue loading ------------------------------------===//

TEST(VerdictStore, EveryPrefixTruncationTolerated) {
  // A crash can cut the journal at any byte. Every prefix must open, keep
  // exactly the records whose full line survived, and quarantine at most
  // the one torn tail line — never fail.
  std::vector<std::pair<std::string, VerifyResult>> Recs = {
      {"key-a", equivalentResult()},
      {"key-b", falsifiedResult()},
      {"key-c", equivalentResult()},
  };
  std::string Full = journalOf(Recs);

  // Differential expectation: split the prefix into lines and apply the
  // documented rule per line (header, then decodeRecord-or-quarantine).
  // A cut that lands exactly before a newline leaves a frame-complete line,
  // which still loads — only a genuinely torn line quarantines.
  auto expect = [](const std::string &Text, size_t &Live, size_t &Quar) {
    std::set<std::string> Keys;
    Quar = 0;
    size_t Pos = 0;
    bool First = true;
    while (Pos < Text.size()) {
      size_t Nl = Text.find('\n', Pos);
      std::string Line = Text.substr(
          Pos, Nl == std::string::npos ? std::string::npos : Nl - Pos);
      Pos = Nl == std::string::npos ? Text.size() : Nl + 1;
      if (First) {
        First = false;
        if (Line == VerdictStore::headerLine())
          continue;
      }
      std::string K;
      VerifyResult R;
      if (VerdictStore::decodeRecord(Line, K, R))
        Keys.insert(K);
      else
        ++Quar;
    }
    Live = Keys.size();
  };

  ScratchFile F("prefix");
  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    F.write(Full.substr(0, Cut));
    std::string Err;
    auto St = VerdictStore::open(F.Path, &Err);
    ASSERT_TRUE(St) << "prefix " << Cut << ": " << Err;

    size_t ExpectLive = 0, ExpectQuar = 0;
    expect(Full.substr(0, Cut), ExpectLive, ExpectQuar);
    EXPECT_EQ(St->size(), ExpectLive) << "prefix " << Cut;
    EXPECT_EQ(St->stats().Quarantined, ExpectQuar) << "prefix " << Cut;
    // A torn tail quarantines at most one line, and only ever the last.
    EXPECT_LE(ExpectQuar, 1u) << "prefix " << Cut;
  }
}

TEST(VerdictStore, GarbageAndFlippedCrcQuarantine) {
  std::string J = journalOf({{"key-a", equivalentResult()}});
  // A CRC-flipped record, a garbage line, then a healthy record: loading
  // must skip the bad lines and keep both good ones.
  std::string Bad = VerdictStore::encodeRecord("key-x", falsifiedResult());
  Bad[2] = Bad[2] == '0' ? '1' : '0'; // corrupt the CRC field
  J += Bad;
  J += "totally unstructured garbage line\n";
  J += VerdictStore::encodeRecord("key-b", falsifiedResult());

  ScratchFile F("garbage");
  F.write(J);
  auto St = VerdictStore::open(F.Path);
  ASSERT_TRUE(St);
  EXPECT_EQ(St->size(), 2u);
  EXPECT_EQ(St->stats().Quarantined, 2u);
  EXPECT_EQ(St->stats().LoadedRecords, 2u);

  VerifyResult R;
  EXPECT_TRUE(St->lookup("key-a", R));
  EXPECT_TRUE(St->lookup("key-b", R));
  expectSameResult(falsifiedResult(), R);
  EXPECT_FALSE(St->lookup("key-x", R));
}

TEST(VerdictStore, BadHeaderQuarantinesEverything) {
  // A file that never was a verdict journal must load as empty (all lines
  // quarantined), not crash and not serve verdicts.
  ScratchFile F("badheader");
  F.write("some other file format\n" +
          VerdictStore::encodeRecord("key-a", equivalentResult()));
  auto St = VerdictStore::open(F.Path);
  ASSERT_TRUE(St);
  // The record line itself is frame-valid, so it still loads; only the
  // header line quarantines. The next compaction heals the file.
  EXPECT_EQ(St->stats().Quarantined, 1u);
  EXPECT_EQ(St->size(), 1u);
}

TEST(VerdictStore, DuplicateKeysLastWriteWins) {
  VerifyResult First = equivalentResult();
  VerifyResult Second = falsifiedResult();
  std::string J = journalOf({{"dup", First}, {"dup", Second}});
  ScratchFile F("dup");
  F.write(J);
  auto St = VerdictStore::open(F.Path);
  ASSERT_TRUE(St);
  EXPECT_EQ(St->size(), 1u);
  EXPECT_EQ(St->stats().LoadedRecords, 2u);
  VerifyResult R;
  ASSERT_TRUE(St->lookup("dup", R));
  expectSameResult(Second, R);
}

//===--- Eligibility (the trust model) ---------------------------------------===//

TEST(VerdictStore, OnlyDeterministicVerdictsEligible) {
  VerifyResult R;
  R.Status = VerifyStatus::Equivalent;
  EXPECT_TRUE(VerdictStore::eligible(R));
  R.Status = VerifyStatus::NotEquivalent;
  EXPECT_TRUE(VerdictStore::eligible(R));
  R.Status = VerifyStatus::SyntaxError;
  EXPECT_TRUE(VerdictStore::eligible(R));

  R.Status = VerifyStatus::Inconclusive;
  for (DiagKind K : {DiagKind::SolverTimeout, DiagKind::ResourceExhausted,
                     DiagKind::LoopBound, DiagKind::Unsupported}) {
    R.Kind = K;
    EXPECT_TRUE(VerdictStore::eligible(R)) << diagKindName(K);
  }
  for (DiagKind K : {DiagKind::None, DiagKind::ValueMismatch,
                     DiagKind::ParseError}) {
    R.Kind = K;
    EXPECT_FALSE(VerdictStore::eligible(R)) << diagKindName(K);
  }
}

TEST(VerdictStore, IneligibleVerdictsNeverPersisted) {
  ScratchFile F("inelig");
  {
    auto St = VerdictStore::open(F.Path);
    ASSERT_TRUE(St);
    VerifyResult Bad;
    Bad.Status = VerifyStatus::Inconclusive;
    Bad.Kind = DiagKind::None;
    St->put("anomaly", Bad);
    St->put("good", equivalentResult());
    EXPECT_EQ(St->stats().Writes, 1u);
    ASSERT_TRUE(St->flush());
  }
  auto St = VerdictStore::open(F.Path);
  ASSERT_TRUE(St);
  EXPECT_EQ(St->size(), 1u);
  VerifyResult R;
  EXPECT_FALSE(St->lookup("anomaly", R));
  EXPECT_TRUE(St->lookup("good", R));
}

//===--- Durability / write-behind -------------------------------------------===//

TEST(VerdictStore, PersistsAcrossReopen) {
  ScratchFile F("reopen");
  {
    auto St = VerdictStore::open(F.Path);
    ASSERT_TRUE(St);
    St->put("key-a", equivalentResult());
    St->put("key-b", falsifiedResult());
    // Destructor flushes.
  }
  auto St = VerdictStore::open(F.Path);
  ASSERT_TRUE(St);
  EXPECT_EQ(St->stats().LiveAtOpen, 2u);
  EXPECT_EQ(St->stats().Quarantined, 0u);
  VerifyResult R;
  ASSERT_TRUE(St->lookup("key-b", R));
  expectSameResult(falsifiedResult(), R);
}

TEST(VerdictStore, WriteBehindFlushesAtBatchSize) {
  ScratchFile F("batch");
  VerdictStore::Options O;
  O.FlushEveryN = 2;
  auto St = VerdictStore::open(F.Path, nullptr, O);
  ASSERT_TRUE(St);
  St->put("key-a", equivalentResult());
  EXPECT_EQ(F.read(), ""); // buffered, nothing on disk yet
  St->put("key-b", equivalentResult());
  std::string OnDisk = F.read(); // batch threshold crossed -> auto-flushed
  EXPECT_NE(OnDisk.find(VerdictStore::headerLine()), std::string::npos);
  EXPECT_EQ(OnDisk.find("key-a") != std::string::npos, true);
  EXPECT_EQ(OnDisk.find("key-b") != std::string::npos, true);
}

TEST(VerdictStore, RePutOfResidentKeyIsNoOp) {
  ScratchFile F("reput");
  auto St = VerdictStore::open(F.Path);
  ASSERT_TRUE(St);
  St->put("key", equivalentResult());
  St->put("key", equivalentResult());
  EXPECT_EQ(St->stats().Writes, 1u);
  ASSERT_TRUE(St->flush());
  // The journal carries exactly one record.
  std::string Text = F.read();
  size_t Count = 0;
  for (size_t P = Text.find("\nR "); P != std::string::npos;
       P = Text.find("\nR ", P + 1))
    ++Count;
  EXPECT_EQ(Count, 1u);
}

//===--- Compaction ----------------------------------------------------------===//

TEST(VerdictStore, CompactionReclaimsDeadWeight) {
  // 70 duplicate records of one key + garbage: over the default min-lines
  // and dead-ratio thresholds, so open() compacts automatically.
  std::string J = std::string(VerdictStore::headerLine()) + "\n";
  for (int I = 0; I < 70; ++I)
    J += VerdictStore::encodeRecord("dup", equivalentResult());
  J += "garbage tail line\n";
  ScratchFile F("compact");
  F.write(J);

  auto St = VerdictStore::open(F.Path);
  ASSERT_TRUE(St);
  EXPECT_EQ(St->size(), 1u);
  EXPECT_EQ(St->stats().Compactions, 1u);

  // The rewritten journal is minimal and pristine.
  std::string Text = F.read();
  EXPECT_EQ(Text.find("garbage"), std::string::npos);
  auto St2 = VerdictStore::open(F.Path);
  ASSERT_TRUE(St2);
  EXPECT_EQ(St2->stats().LoadedRecords, 1u);
  EXPECT_EQ(St2->stats().Quarantined, 0u);
  EXPECT_EQ(St2->stats().Compactions, 0u);
}

TEST(VerdictStore, ExplicitCompactSortsAndPreservesRecords) {
  ScratchFile F("sortcompact");
  auto St = VerdictStore::open(F.Path);
  ASSERT_TRUE(St);
  St->put("zebra", equivalentResult());
  St->put("alpha", falsifiedResult());
  St->put("mid", equivalentResult());
  ASSERT_TRUE(St->compact());
  std::string Text = F.read();
  size_t A = Text.find("alpha"), M = Text.find("mid"), Z = Text.find("zebra");
  ASSERT_NE(A, std::string::npos);
  ASSERT_NE(M, std::string::npos);
  ASSERT_NE(Z, std::string::npos);
  EXPECT_LT(A, M);
  EXPECT_LT(M, Z);

  auto St2 = VerdictStore::open(F.Path);
  ASSERT_TRUE(St2);
  EXPECT_EQ(St2->stats().LiveAtOpen, 3u);
  VerifyResult R;
  ASSERT_TRUE(St2->lookup("alpha", R));
  expectSameResult(falsifiedResult(), R);
}

//===--- VerifyCache integration ---------------------------------------------===//

const char *SrcIR = "define i32 @f(i32 %x) {\n  %y = mul i32 %x, 2\n"
                    "  ret i32 %y\n}\n";
const char *GoodTgt = "define i32 @f(i32 %x) {\n  %y = shl i32 %x, 1\n"
                      "  ret i32 %y\n}\n";
const char *BadTgt = "define i32 @f(i32 %x) {\n  %y = mul i32 %x, 3\n"
                     "  ret i32 %y\n}\n";

struct IrFixture {
  std::unique_ptr<Module> M;
  Function *Src;
  IrFixture() {
    auto P = parseModule(SrcIR);
    EXPECT_TRUE(P.hasValue());
    M = P.takeValue();
    Src = M->getMainFunction();
  }
};

/// One ladder rung's lookup through \p Cache, computed by the plain
/// verifier on a miss.
VerifyResult cachedVerify(VerifyCache &Cache, const Function &Src,
                          const std::string &Tgt, const VerifyOptions &Opts) {
  return Cache.lookupOrCompute(VerifyCache::makeKey(SrcIR, Tgt, Opts), [&] {
    return verifyCandidateText(Src, Tgt, Opts);
  });
}

TEST(VerdictStore, CacheWritesBehindAndReadsThrough) {
  IrFixture Fx;
  VerifyOptions Opts;
  ScratchFile F("cache");

  // Run 1: cold store — the cache computes and writes behind.
  VerifyResult Cold;
  {
    auto St = VerdictStore::open(F.Path);
    ASSERT_TRUE(St);
    VerifyCache Cache;
    Cache.setBackingStore(St.get());
    Cold = cachedVerify(Cache, *Fx.Src, GoodTgt, Opts);
    cachedVerify(Cache, *Fx.Src, BadTgt, Opts);
    EXPECT_EQ(St->stats().Writes, 2u);
    EXPECT_EQ(St->stats().Hits, 0u);
  }

  // Run 2: fresh cache, warm store — the memo miss reads through and the
  // verdict is bit-identical to the computed one.
  auto St = VerdictStore::open(F.Path);
  ASSERT_TRUE(St);
  EXPECT_EQ(St->stats().LiveAtOpen, 2u);
  VerifyCache Cache;
  Cache.setBackingStore(St.get());
  VerifyResult Warm = cachedVerify(Cache, *Fx.Src, GoodTgt, Opts);
  expectSameResult(Cold, Warm);
  EXPECT_EQ(St->stats().Hits, 1u);
  EXPECT_EQ(St->stats().Writes, 0u); // replayed, nothing new to journal
  // And the memo now holds it: a second verify is a pure memo hit.
  cachedVerify(Cache, *Fx.Src, GoodTgt, Opts);
  EXPECT_EQ(St->stats().Hits, 1u);
}

TEST(VerdictStore, GroupVerifierReadsThroughStore) {
  IrFixture Fx;
  ScratchFile F("group");
  LadderOptions L;
  L.MaxTiers = 1;
  {
    auto St = VerdictStore::open(F.Path);
    ASSERT_TRUE(St);
    VerifyCache Cache;
    Cache.setBackingStore(St.get());
    cachedVerify(Cache, *Fx.Src, GoodTgt, L.Base);
  }
  auto St = VerdictStore::open(F.Path);
  ASSERT_TRUE(St);
  VerifyCache Cache;
  Cache.setBackingStore(St.get());
  L.Cache = &Cache;
  Candidate C(GoodTgt);
  Counter &Computed = MetricsRegistry::global().counter("batch.computed");
  Counter &CacheHits = MetricsRegistry::global().counter("batch.cache_hits");
  const uint64_t Computed0 = Computed.value(), CacheHits0 = CacheHits.value();
  auto Outs = verifyGroup(L, SrcIR, *Fx.Src, {&C});
  EXPECT_EQ(Computed.value(), Computed0); // served by the store, memoized
  EXPECT_EQ(CacheHits.value() - CacheHits0, 1u);
  EXPECT_EQ(St->stats().Hits, 1u);
  EXPECT_EQ(St->stats().Writes, 0u);
  EXPECT_EQ(Outs[0].Result.Status, VerifyStatus::Equivalent);
}

TEST(VerdictStore, FaultInjectorBypassesStoreEntirely) {
  IrFixture Fx;
  VerifyOptions Opts;
  ScratchFile F("faults");
  {
    // Warm the store honestly first.
    auto St = VerdictStore::open(F.Path);
    ASSERT_TRUE(St);
    VerifyCache Cache;
    Cache.setBackingStore(St.get());
    cachedVerify(Cache, *Fx.Src, GoodTgt, Opts);
  }
  auto St = VerdictStore::open(F.Path);
  ASSERT_TRUE(St);
  FaultInjector FI(42); // attached but no sites armed — still untrusted
  VerifyCache Cache;
  Cache.setBackingStore(St.get());
  Cache.setFaultInjector(&FI);
  cachedVerify(Cache, *Fx.Src, GoodTgt, Opts);
  cachedVerify(Cache, *Fx.Src, BadTgt, Opts);
  EXPECT_EQ(St->stats().Hits, 0u);   // no reads while chaos is possible
  EXPECT_EQ(St->stats().Writes, 0u); // and nothing journaled
}

//===--- End-to-end bit-identity ---------------------------------------------===//

TEST(VerdictStore, WarmColdAndNoStoreEvaluationsBitIdentical) {
  MetricsDelta Delta;
  DatasetOptions DO;
  DO.TrainCount = 0;
  DO.ValidCount = 8;
  DO.Seed = 2026;
  Dataset DS = buildDataset(DO);
  RewritePolicyModel Model(presetQwen3B());

  EvalResult Oracle =
      evaluateModel(Model, DS.Valid, PromptMode::Generic);

  ScratchFile F("eval");
  // Cold store pass (populates), then warm passes across shard/thread
  // configurations — every one must be bit-identical to the no-store
  // oracle, and the warm passes must actually replay verdicts, every
  // record the cold pass journaled and nothing quarantined.
  const unsigned Configs[][2] = {{1, 1}, {3, 1}, {4, 2}};
  bool First = true;
  size_t Records = 0;
  for (const auto &Cfg : Configs) {
    auto St = VerdictStore::open(F.Path);
    ASSERT_TRUE(St);
    EXPECT_EQ(St->stats().Quarantined, 0u);
    EXPECT_EQ(St->stats().LiveAtOpen, Records);
    ThreadPool Pool(Cfg[1]);
    EvalOptions EO;
    EO.Shards = Cfg[0];
    EO.Pool = Cfg[1] > 1 ? &Pool : nullptr;
    EO.VerdictTier = St.get();
    EvalResult R = evaluateModelSharded(Model, DS.Valid, PromptMode::Generic,
                                        VerifyOptions(), EO);
    EXPECT_EQ(countResultDivergence(Oracle, R), 0u)
        << "shards=" << Cfg[0] << " threads=" << Cfg[1];
    if (First) {
      EXPECT_GT(St->stats().Writes, 0u);
      First = false;
    } else {
      EXPECT_GT(St->stats().Hits, 0u)
          << "warm store did not replay verdicts";
    }
    ASSERT_TRUE(St->flush());
    Records = St->size();
  }
  Delta.expectGolden();
}

//===--- Graceful degradation under I/O faults --------------------------------===//

TEST(VerdictStore, DegradesToInMemoryAfterConsecutiveFlushFailures) {
  ScratchFile F("degrade");
  VerdictStore::Options O;
  O.FlushEveryN = 1; // a flush attempt per put
  std::string Err;
  auto St = VerdictStore::open(F.Path, &Err, O);
  ASSERT_NE(St, nullptr) << Err;

  FaultInjector FI(41);
  FI.enable(FaultSite::IoWrite, 1.0);
  FaultyIoEnv Env(FI);
  {
    ScopedIoEnv Install(&Env);
    for (int I = 0; I < 2; ++I)
      St->put("deg-" + std::to_string(I), equivalentResult());
    EXPECT_FALSE(St->degraded()); // two failures: still trying
    St->put("deg-2", equivalentResult());
    EXPECT_TRUE(St->degraded()); // third consecutive failure trips it
  }

  VerdictStore::Stats S = St->stats();
  EXPECT_EQ(S.FlushFailures, 3u);
  EXPECT_NE(S.DegradedReason.find("3 consecutive flush failures"),
            std::string::npos)
      << S.DegradedReason;
  EXPECT_EQ(S.Writes, 3u);

  // Degraded is sticky and in-memory-only, not broken: puts and lookups
  // keep working, writes keep counting (the metric plane must move
  // identically to a fault-free run), and flush is a successful no-op even
  // now that the disk is healthy again.
  St->put("deg-3", equivalentResult());
  EXPECT_EQ(St->stats().Writes, 4u);
  VerifyResult Out;
  EXPECT_TRUE(St->lookup("deg-0", Out));
  EXPECT_TRUE(St->lookup("deg-3", Out));
  EXPECT_TRUE(St->degraded());
  EXPECT_TRUE(St->flush(&Err)) << Err;
  EXPECT_TRUE(St->compact(&Err)) << Err;

  // Durability really was lost — by design, and only durability: a reopen
  // finds an empty journal, not a corrupt one.
  St.reset();
  auto Re = VerdictStore::open(F.Path, &Err);
  ASSERT_NE(Re, nullptr) << Err;
  EXPECT_EQ(Re->size(), 0u);
  EXPECT_FALSE(Re->degraded());
}

TEST(VerdictStore, IntermittentFlushFailuresDoNotTrip) {
  // The trip condition is *consecutive* failures: a flaky disk that
  // recovers resets the count and the store stays durable.
  ScratchFile F("flaky");
  VerdictStore::Options O;
  O.FlushEveryN = 1;
  auto St = VerdictStore::open(F.Path, nullptr, O);
  ASSERT_NE(St, nullptr);

  FaultInjector FI(43);
  FI.enable(FaultSite::IoWrite, 1.0);
  FaultyIoEnv Env(FI);
  for (int Round = 0; Round < 3; ++Round) {
    {
      ScopedIoEnv Install(&Env);
      St->put("flaky-bad-" + std::to_string(Round), equivalentResult());
    }
    // Disk recovers before the third consecutive failure each time.
    St->put("flaky-good-" + std::to_string(Round), equivalentResult());
  }
  EXPECT_FALSE(St->degraded());
  EXPECT_EQ(St->stats().FlushFailures, 3u); // counted, but never 3 in a row
  ASSERT_TRUE(St->flush());

  // The successfully flushed records are durable.
  auto Re = VerdictStore::open(F.Path);
  ASSERT_NE(Re, nullptr);
  VerifyResult Out;
  EXPECT_TRUE(Re->lookup("flaky-good-0", Out));
}

} // namespace
} // namespace veriopt
