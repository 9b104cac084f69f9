"""Stopword counting — the scoring signal of the best-node algorithm.

Mirrors /root/reference/scraper/text.py: ``WordStats`` (text.py:26-54),
``StopWords.get_stopword_count`` (text.py:83-99: strip punctuation, lower,
split on single spaces, count overlap with the language's stopword set) and
the language-specific subclasses (zh/ja char segmentation standing in for
jieba/tinysegmenter, ar without punctuation stripping, ko/hi suffix
``endswith`` matching — text.py:102-223).

The reference pulls stopword sets from spaCy (text.py:19-23); spaCy is not
available here, so compact built-in sets are bundled for the main languages
(en list ≈ the classic english stopword list; others are the highest-
frequency function words). Any unknown language falls back to the English
set — this shifts absolute stopword counts but not the engine's own
fixtures, which are generated with these same sets.
"""

from __future__ import annotations

import string

_EN = """
a about above after again against all almost alone along already also although
always am among an and another any anybody anyone anything anywhere are area
areas around as ask asked asking asks at away b back backed backing backs be
became because become becomes been before began behind being beings below best
better between big both but by c came can cannot case cases certain certainly
clear clearly come could d did differ different differently do does done down
downed downing downs during e each early either end ended ending ends enough
even evenly ever every everybody everyone everything everywhere f face faces
fact facts far felt few find finds first for four from full fully further
furthered furthering furthers g gave general generally get gets give given
gives go going good goods got great greater greatest group grouped grouping
groups h had has have having he her here herself high higher highest him
himself his how however i if important in interest interested interesting
interests into is it its itself j just k keep keeps kind knew know known knows
l large largely last later latest least less let lets like likely long longer
longest m made make making man many may me member members men might more most
mostly mr mrs much must my myself n necessary need needed needing needs never
new newer newest next no nobody non noone not nothing now nowhere number
numbers o of off often old older oldest on once one only open opened opening
opens or order ordered ordering orders other others our out over p part parted
parting parts per perhaps place places point pointed pointing points possible
present presented presenting presents problem problems put puts q quite r
rather really right room rooms s said same saw say says second seconds see
seem seemed seeming seems sees several shall she should show showed showing
shows side sides since small smaller smallest so some somebody someone
something somewhere state states still such sure t take taken than that the
their them then there therefore these they thing things think thinks this
those though thought thoughts three through thus to today together too took
toward turn turned turning turns two u under until up upon us use used uses v
very w want wanted wanting wants was way ways we well wells went were what
when where whether which while who whole whose why will with within without
work worked working works would x y year years yet you young younger youngest
your yours z
""".split()

_ES = """
el la los las un una unos unas y o pero de del a al en con por para que no si
se su sus le les lo como más menos muy este esta estos estas ese esa esos
esas es son fue fueron ser está están estar hay ha han sobre entre sin hasta
desde también cuando donde quien cual todo todos toda todas otro otra otros
otras ya mi tu nos vos ellos ellas nosotros usted yo él ella algo nada cada
porque qué cómo sí fue era eran sido tiene tienen tener hace hacen hacer
""".split()

_DE = """
der die das den dem des ein eine einen einem einer eines und oder aber nicht
ist sind war waren sein bin bist seid gewesen werden wird wurde wurden in im
an am auf aus bei mit nach von vor zu zum zur über unter durch für gegen ohne
um als auch noch nur schon sehr so wie wenn dann denn dass weil ich du er sie
es wir ihr man mein dein sein ihr unser euer dies diese dieser dieses jene
hier da dort was wer wo wann warum hat haben hatte hatten kann können muss
müssen soll sollen will wollen mag mögen darf dürfen
""".split()

_FR = """
le la les un une des du de et ou mais dans sur sous avec sans pour par en au
aux ce cette ces cet il elle ils elles je tu nous vous on ne pas plus moins
très qui que quoi dont où est sont était étaient être été a ont avait avaient
avoir fait faire comme si tout tous toute toutes autre autres même aussi bien
encore déjà ici là alors donc car leur leurs son sa ses mon ma mes ton ta tes
notre votre nos vos y se sa
""".split()

_ZH = """
的 了 和 是 在 我 有 他 这 中 大 来 上 国 个 到 说 们 为 子 和 你 地 出 道 也
时 年 得 就 那 要 下 以 生 会 自 着 去 之 过 家 学 对 可 她 里 后 小 么 心 多
天 而 能 好 都 然 没 日 于 起 还 发 成 事 只 作 当 想 看 文 无 开 手 十 用 主
行 方 又 如 前 所 本 见 经 头 面 公 同 三 已 老 从 动 两 长 知 民 样 现 分 将
外 但 身 些 与 高 意 进 把 法 此 实 回 二 理 美 点 月 明 其 种 声 全 工 己 话
儿 者 向 情 部 正 名 定 女 问 力 机 给 等 几 很 业 最 间 新 什 打 便 位 因 重
被 走 电 四 第 门 相 次 东 政 海 口 使 教 西 再 平 真 听 世 气 信 北 少 关 并
内 加 化 由 却 代 军 产 入 先 山 五 太 水 万 市 眼 体 别 处 总 才 场 师 书 比
住 员 九 笑 性 通 目 华 报 立 马 命 张 活 难 神 数 件 安 表 原 车 白 应 路 期
叫 死 常 提 感 金 何 更 反 题 必 都 位 唯
""".split()

# Multi-character zh function words (core of spaCy's zh STOP_WORDS — the
# reference's source, text.py:19-23). Doubles as the full-mode
# segmentation lexicon for StopWordsChinese: jieba's dictionary is far
# larger, but function words are the entries stopword counting and
# best-node scoring actually consume.
_ZH_WORDS = """
我们 你们 他们 她们 它们 咱们 自己 大家 什么 怎么 怎样 为什么 没有 可以
这个 那个 这些 那些 这样 那样 这里 那里 这么 那么 因为 所以 但是 如果
虽然 然后 而且 或者 还是 已经 正在 曾经 知道 觉得 认为 应该 能够 需要
开始 一些 一个 一种 一样 一直 一定 一般 现在 时候 地方 问题 就是 只是
还有 很多 非常 十分 根据 关于 对于 由于 通过 随着 作为 成为 以及 其他
其中 之后 之前 之间 以后 以前 上面 下面 里面 外面 不过 不能 不会 不要
不是 可能 可是 每个 许多 任何 所有 有些 有的 得到 进行 表示 认为 主要
重要 出来 起来 下去 上去 过去 今天 明天 昨天 今年 去年 明年 以来 后来
原来 本来 当然 突然 忽然 仍然 依然 果然 既然 尽管 无论 不论 只要 只有
除了 为了 按照 如何 多少 几乎 大约 左右 方面 情况 时间 东西 使用 工作
生活 发展 社会 经济 国家 世界 公司 政府 记者 报道 表明 指出 强调 要求
希望 相信 发现 研究 调查 结果 影响 包括 继续 决定 参加 举行 召开 接受
""".split()

_ZH_LEXICON = frozenset(_ZH_WORDS)
_ZH_LEXICON_MAXLEN = max(len(w) for w in _ZH_WORDS)
# the segmenter matches words of >= 2 chars only, so none can start at a
# position whose next two chars are not the first two of such a word
_ZH_LEXICON_PREFIX2 = frozenset(w[:2] for w in _ZH_WORDS if len(w) >= 2)

_AR = """
في من على إلى عن أن إن كان كانت هذا هذه ذلك تلك التي الذي الذين ما لا لم لن
هو هي هم نحن أنا أنت و أو ثم بل لكن إذا كل بعض غير بين عند قد لقد منذ حتى
كما أي بعد قبل ضد مع ليس كانوا يكون تكون هناك هنا ايضا أيضا فيه فيها عليه
عليها إليه إليها منه منها له لها لهم به بها
""".split()

# Thai high-frequency function words (the reference gets its th set from
# spaCy, text.py:19-23; this is the standard core of that list). The same
# set doubles as the segmentation dictionary for StopWordsThai below.
_TH = """
ที่ การ ใน ของ และ เป็น มี ไม่ ได้ ให้ ว่า จะ มา ไป กับ แต่ ก็ นี้ นั้น อยู่
อย่าง คน เรา เขา ผม ฉัน คุณ มัน ซึ่ง โดย จาก ถ้า เมื่อ แล้ว ต้อง ถึง กว่า หรือ
เพราะ ทำ ด้วย อีก ทั้ง ยัง จึง เลย ตาม ช่วง เพื่อ ต่อ ครั้ง ความ หลัง ก่อน วัน
ปี คือ ดี มาก ขึ้น ลง ออก เข้า ใช้ รับ เรื่อง กำลัง เคย ไว้ เอง ทุก บาง หนึ่ง
สอง สาม ได้แก่ เช่น ๆ นะ ครับ ค่ะ จ้ะ สามารถ ควร อาจ เกี่ยวกับ ระหว่าง ภายใน
ตั้งแต่ จนถึง ทำให้ เพียง เท่านั้น ด้าน ส่วน ทาง กรณี ขณะ เวลา ตอน แห่ง ราย
พร้อม เพิ่ม ลด นาย นาง เดือน
""".split()

# Japanese function words (particles, auxiliaries, demonstratives,
# pronouns — the SlothLib-derived core that spaCy's ja STOP_WORDS, the
# reference's source via text.py:19-23, is built on). Doubles as the
# longest-match segmentation lexicon for StopWordsJapanese below.
_JA = """
の に は を た が で て と し れ さ ある いる も する から な こと として い
や れる など なっ ない この ため その あっ よう また もの という あり まで
られ なる へ か だ これ によって により おり より による ず なり られる
において ば なかっ なく しかし について せ だっ その後 できる それ う ので
なお のみ でき き つ における および いう さらに でも ら たり その他
に関する たち ます ん なら に対して 特に せる 及び これら とき では にて
ほか ながら うち そして とともに ただし かつて それぞれ または お ほど
ものの に対する ほとんど と共に といった です とも ところ ここ そこ あそこ
どこ だれ 誰 なに 何 私 あなた 彼 彼女 わたし ぼく きみ みんな どの あの
こう そう ああ どう しまう ください ちゃん くん さん もう やはり
""".split()

_LISTS = {
    "en": frozenset(_EN),
    "es": frozenset(_ES),
    "de": frozenset(_DE),
    "fr": frozenset(_FR),
    "zh": frozenset(_ZH) | frozenset(_ZH_WORDS),
    "ar": frozenset(_AR),
    "ja": frozenset(_JA),
    "th": frozenset(_TH),
}

_PUNCT_TABLE = {ord(c): None for c in string.punctuation}


def get_stopwords(language: str) -> frozenset:
    return _LISTS.get(language[:2], _LISTS["en"])


class WordStats:
    """text.py:26-54."""

    __slots__ = ("stop_word_count", "word_count", "stop_words")

    def __init__(self, stop_word_count=0, word_count=0, stop_words=None):
        self.stop_word_count = stop_word_count
        self.word_count = word_count
        self.stop_words = stop_words or []

    def get_stopword_count(self):
        return self.stop_word_count

    def get_word_count(self):
        return self.word_count


class StopWords:
    """Base (latin) tokenizer: strip string.punctuation, lower, split on
    ' ' — text.py:57-99. Instances are cheap; the stopword frozensets are
    module-level singletons so per-call construction (the reference's
    pattern, content_extractor.py:622) stays cheap here."""

    def __init__(self, language="en"):
        self.language = language[:2]
        self.STOP_WORDS = get_stopwords(self.language)

    def remove_punctuation(self, content: str) -> str:
        return content.translate(_PUNCT_TABLE)

    def candidate_words(self, stripped_input: str):
        return stripped_input.split(" ")

    def get_stopword_count(self, content: str) -> WordStats:
        if not content:
            return WordStats()
        words = self.candidate_words(self.remove_punctuation(content).lower())
        stops = self.STOP_WORDS
        overlapping = [w for w in words if w in stops]
        return WordStats(len(overlapping), len(words), overlapping)


class StopWordsChinese(StopWords):
    """zh segmentation: jieba full-mode (``cut_all=True``, text.py:110-114)
    reimplemented over the bundled lexicon. jieba's ``__cut_all`` walks a
    word DAG and, at each position, yields every multi-char dictionary
    word starting there; a single character is yielded only when it is
    the sole DAG edge AND not already covered by a previous word. The
    dictionary here is the bundled multi-char stopword/function-word
    lexicon (_ZH_WORDS) — smaller than jieba's, so unknown open-class
    words fall back to per-character tokens exactly like the prior
    stand-in; known function words now count once as words (matching
    jieba) instead of per character."""

    def __init__(self, language="zh"):
        super().__init__("zh")
        self._lexicon = _ZH_LEXICON
        self._prefix2 = _ZH_LEXICON_PREFIX2
        self._maxlen = _ZH_LEXICON_MAXLEN

    def candidate_words(self, stripped_input: str):
        out: list[str] = []
        s = stripped_input
        n = len(s)
        lex = self._lexicon
        prefix2 = self._prefix2
        maxlen = self._maxlen
        old_j = -1
        k = 0
        while k < n:
            c = s[k]
            if c.isspace():
                k += 1
                continue
            # DAG edges at k: all lexicon words s[k:k+ln], ln in 2..maxlen
            found = False
            if s[k:k + 2] in prefix2:
                for ln in range(2, min(maxlen, n - k) + 1):
                    w = s[k:k + ln]
                    if w in lex:
                        out.append(w)
                        old_j = k + ln - 1
                        found = True
            if not found and k > old_j:
                out.append(c)
                old_j = k
            k += 1
        return out


class StopWordsArabic(StopWords):
    """ar: no punctuation stripping, plain whitespace tokens
    (text.py:117-132)."""

    def __init__(self, language="ar"):
        super().__init__("ar")

    def remove_punctuation(self, content):
        return content

    def candidate_words(self, stripped_input: str):
        return stripped_input.split()


class _SuffixMatchStopWords(StopWords):
    """ko/hi variant: a word counts if it *ends with* any stopword
    (text.py:135-188)."""

    def get_stopword_count(self, content: str) -> WordStats:
        if not content:
            return WordStats()
        stripped = self.remove_punctuation(content)
        overlapping = []
        count = 0
        for w in self.candidate_words(stripped):
            count += 1
            for s in self.STOP_WORDS:
                if w.endswith(s):
                    overlapping.append(w)
        return WordStats(len(overlapping), count, overlapping)


class StopWordsKorean(_SuffixMatchStopWords):
    def __init__(self, language="ko"):
        super().__init__("ko")


class StopWordsHindi(_SuffixMatchStopWords):
    def __init__(self, language="hi"):
        super().__init__("hi")


class StopWordsJapanese(StopWords):
    """ja: greedy longest-match segmentation over the bundled
    function-word lexicon (stand-in for tinysegmenter, text.py:199-210,
    unavailable here — same approach as the th path). A run containing
    Japanese script is consumed lexicon-word by lexicon-word; the spans
    between matches (the content words) become single unknown tokens.
    This reproduces tinysegmenter's published segmentations at the
    function-word boundaries — the only splits stopword COUNTING (the
    best-node signal) consumes."""

    def __init__(self, language="ja"):
        super().__init__("ja")
        self._maxlen = max((len(w) for w in self.STOP_WORDS), default=1)

    @staticmethod
    def _is_ja(c: str) -> bool:
        return ("぀" <= c <= "ヿ" or "一" <= c <= "鿿"
                or c == "々")

    def candidate_words(self, stripped_input: str):
        tokens: list[str] = []
        for run in stripped_input.split():
            if not any(self._is_ja(c) for c in run):
                tokens.append(run)
                continue
            i, n = 0, len(run)
            unk: list[str] = []
            while i < n:
                matched = None
                for ln in range(min(self._maxlen, n - i), 0, -1):
                    if run[i:i + ln] in self.STOP_WORDS:
                        matched = run[i:i + ln]
                        break
                if matched is not None:
                    if unk:
                        tokens.append("".join(unk))
                        unk = []
                    tokens.append(matched)
                    i += len(matched)
                else:
                    unk.append(run[i])
                    i += 1
            if unk:
                tokens.append("".join(unk))
        return tokens


class StopWordsThai(StopWords):
    """th: Thai script has no inter-word spaces, so words must be
    segmented before counting. The reference delegates to
    pythainlp.word_tokenize (text.py:213-223, unavailable here); this
    stand-in does greedy longest-match segmentation over the bundled
    stopword dictionary — a run of Thai characters is consumed
    dictionary-word by dictionary-word, with non-matching spans chunked
    into single unknown tokens. Stopword COUNTS (the only thing best-node
    scoring consumes) agree with a full segmenter whenever the function
    words themselves are in the dictionary."""

    def __init__(self, language="th"):
        super().__init__("th")
        self._maxlen = max((len(w) for w in self.STOP_WORDS), default=1)

    def candidate_words(self, stripped_input: str):
        tokens: list[str] = []
        for run in stripped_input.split():
            if not any("฀" <= c <= "๿" for c in run):
                tokens.append(run)
                continue
            i, n = 0, len(run)
            unk: list[str] = []
            while i < n:
                matched = None
                for ln in range(min(self._maxlen, n - i), 0, -1):
                    if run[i:i + ln] in self.STOP_WORDS:
                        matched = run[i:i + ln]
                        break
                if matched:
                    if unk:
                        tokens.append("".join(unk))
                        unk = []
                    tokens.append(matched)
                    i += len(matched)
                else:
                    unk.append(run[i])
                    i += 1
            if unk:
                tokens.append("".join(unk))
        return tokens


def stopwords_class_for(language: str):
    """Language → tokenizer class registry (configuration.py:112-130)."""
    return {
        "zh": StopWordsChinese,
        "ar": StopWordsArabic,
        "fa": StopWordsArabic,
        "ko": StopWordsKorean,
        "hi": StopWordsHindi,
        "ja": StopWordsJapanese,
        "th": StopWordsThai,
    }.get(language[:2], StopWords)
